package reorder

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// wireFloats are the float cells whose encoding is easy to get wrong:
// signed zero, both sides of encoding/json's 'f'/'e' cutoffs,
// subnormals, and integer-valued floats.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99999e-7, 1e21, 9.99999e20, 1e20, -1e21,
	5e-324, 2.2250738585072014e-308 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64,
	1, -1, 3, 42, 1e15, 123456789.125, 0.1, -2.5e-8, 1.0000000000000002,
}

// wireStrings are the string cells encoding/json escapes: HTML
// metacharacters, the JavaScript line terminators, invalid UTF-8 and
// control characters.
var wireStrings = []string{
	"", "plain", "<>&", "a<b>c&d", "\u2028", "x\u2029y", "\xff", "a\xc3", "\xed\xa0\x80",
	"\x00\x01\x1f", "\b\f\n\r\t", `"quoted" \back\`, "\x7f", "héllo 世界 🙂", "</script>",
}

// randWireRel is a random result: up to five columns, each one of the
// physical kinds (int, float, string, bool, mixed kinds = PhysAny, all
// NULL), NULLs sprinkled in each, zero to 40 rows; half the time the
// columns are pending views through a selection, as a filter leaves
// them.
func randWireRel(rng *rand.Rand) *batch.Rel {
	w := rng.Intn(6)
	attrs := make([]schema.Attribute, w)
	kinds := make([]int, w)
	for c := range attrs {
		attrs[c] = schema.Attr("t", fmt.Sprintf("c%d", c))
		kinds[c] = rng.Intn(6)
	}
	cell := func(kind int) value.Value {
		if kind == 4 {
			kind = rng.Intn(4) // mixed: a kind per cell
		}
		switch kind {
		case 0:
			return value.NewInt(rng.Int63n(1<<40) - 1<<39)
		case 1:
			if rng.Intn(2) == 0 {
				return value.NewFloat(wireFloats[rng.Intn(len(wireFloats))])
			}
			return value.NewFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25)))
		case 2:
			return value.NewString(wireStrings[rng.Intn(len(wireStrings))])
		case 3:
			return value.NewBool(rng.Intn(2) == 0)
		}
		return value.Null
	}
	rel := relation.New(schema.New(attrs...))
	n := rng.Intn(41)
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, w)
		for c := range t {
			if rng.Intn(5) == 0 {
				t[c] = value.Null
			} else {
				t[c] = cell(kinds[c])
			}
		}
		rel.Append(t)
	}
	out := batch.FromRelation(rel)
	if rng.Intn(2) == 0 {
		var sel []int32
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		out = out.Select(sel)
	}
	return out
}

// jsonEncoded is what the handler wrote before it encoded from
// columns: Query's Rows-filled Response through encoding/json.
func jsonEncoded(resp *Response) ([]byte, error) {
	boxed := *resp
	boxed.Rows = boxRows(resp.rel)
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(&boxed)
	return b.Bytes(), err
}

// tupleRows fills Rows the row-major way: box the result into tuples,
// then convert each value.
func tupleRows(rel *batch.Rel) [][]any {
	rows := make([][]any, 0, rel.N)
	for _, t := range rel.ToRelation().Tuples() {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = jsonValue(v)
		}
		rows = append(rows, row)
	}
	return rows
}

// TestHandlerWireMatchesEncodingJSON: the column encoder writes exactly
// the bytes encoding/json writes for the same response with Rows
// filled, and the Rows Query fills from the vectors are the tuple
// route's — over every physical kind with NULLs, PhysAny, pending
// columns, zero rows, every omitempty combination, and the float and
// string cells whose encoding has special cases.
func TestHandlerWireMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 400; i++ {
		rel := randWireRel(rng)
		resp := &Response{
			Columns:     make([]string, rel.Width()),
			CacheStatus: []string{"hit", "miss", "shared", "bypass"}[rng.Intn(4)],
			PlanKey:     "π[t.a](σ[t.a < 3 & t.b <> 'x'](t))",
			Params:      rng.Intn(4),
			QueuedNs:    rng.Int63n(1e6),
			OptimizeNs:  rng.Int63n(1e9),
			BindNs:      rng.Int63n(1e5),
			ExecNs:      rng.Int63n(1e8),
			rel:         rel,
		}
		for c := range resp.Columns {
			resp.Columns[c] = wireStrings[rng.Intn(len(wireStrings))]
		}
		omit := i % 32 // each omitempty field present or absent, every combination
		if omit&1 != 0 {
			resp.Degraded = "budget: <exprs>"
		}
		if omit&2 != 0 {
			resp.MaxQError = []float64{1, 1.5, 283.33333333333337, 1e22}[rng.Intn(4)]
		}
		if omit&4 != 0 {
			resp.FeedbackCorrections = 1 + rng.Intn(9)
		}
		if omit&8 != 0 {
			resp.ReplanGen = 1 + rng.Int63n(9)
		}
		resp.Replanned = omit&16 != 0
		if rows, ref := boxRows(rel), tupleRows(rel); !reflect.DeepEqual(rows, ref) {
			t.Fatalf("case %d: Rows from the vectors %v, through tuples %v", i, rows, ref)
		}
		want, err := jsonEncoded(resp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: wire encoding differs from encoding/json\n got %s\nwant %s", i, got, want)
		}
	}
}

// FuzzWireResponse: a string cell and a float cell, typed and in a
// PhysAny column, encode as encoding/json encodes them — or, for a
// float JSON cannot represent, fail where encoding/json fails.
func FuzzWireResponse(f *testing.F) {
	for i, s := range wireStrings {
		f.Add(s, wireFloats[i%len(wireFloats)])
	}
	for _, x := range wireFloats {
		f.Add("", x)
	}
	f.Add("inf", math.Inf(1))
	f.Add("nan", math.NaN())
	f.Fuzz(func(t *testing.T, s string, x float64) {
		rel := relation.New(schema.New(schema.Attr("t", "s"), schema.Attr("t", "f"), schema.Attr("t", "any")))
		rel.Append(relation.Tuple{value.NewString(s), value.NewFloat(x), value.NewString(s)})
		rel.Append(relation.Tuple{value.Null, value.Null, value.NewFloat(x)})
		resp := &Response{Columns: []string{s, "f", "any"}, CacheStatus: "hit", PlanKey: s, Degraded: s, rel: batch.FromRelation(rel)}
		want, werr := jsonEncoded(resp)
		got, gerr := appendResponse(nil, resp)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("encoding/json error %v, wire error %v", werr, gerr)
		}
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("wire encoding differs from encoding/json\n got %s\nwant %s", got, want)
		}
	})
}

// TestHandlerUnencodableResult: a result JSON cannot represent — a
// float sum overflowing to +Inf — is a typed 500 internal envelope,
// not a 200 with an empty body.
func TestHandlerUnencodableResult(t *testing.T) {
	tb := relation.NewBuilder("t", "a", "f")
	tb.Row(value.NewInt(1), value.NewFloat(1e308))
	tb.Row(value.NewInt(1), value.NewFloat(1e308))
	svc := newTestService(t, ServiceConfig{DB: Database{"t": tb.Relation()}})
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/query",
		strings.NewReader(`{"sql": "select t.a, sum(t.f) as s from t group by t.a"}`)))
	var envelope apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || envelope.Error.Code != "internal" || envelope.Error.Message == "" {
		t.Fatalf("got %d %+v, want 500 internal", rec.Code, envelope)
	}
	if ok, internal := svc.requests.With("ok").Value(), svc.requests.With("internal").Value(); ok != 0 || internal != 1 {
		t.Fatalf("serve.requests counted %d ok and %d internal, want the request counted internal", ok, internal)
	}
}

// servingShapes are the five hit_scan template shapes of the serving
// benchmark (bench/workloads.go), as literals with one constant of each
// template's range filled in.
var servingShapes = []struct{ name, sql string }{
	{"supplier", "select v2.supkey as supkey, v2.partkey as partkey, v2.qty as qty, v3.aggqty95 as aggqty95 " +
		"from (select agg94.supkey as supkey, agg94.partkey as partkey, agg94.qty as qty " +
		"from agg94, sup_detail where agg94.supkey = sup_detail.supkey and sup_detail.suprating = 'BANKRUPT') as v2 " +
		"left outer join (select supkey, partkey, count(*) as aggqty95 from detail95 group by supkey, partkey) as v3 " +
		"on v2.supkey = v3.supkey and v2.partkey = v3.partkey and v2.qty < 2 * v3.aggqty95"},
	{"skew_groupby", "select fact.k, count(*) as n from fact, d1, d2 " +
		"where fact.j = d1.j and d1.a = d2.a and fact.k = 0 and fact.v = 0 and d2.tag = 2 group by fact.k"},
	{"loj3_groupby", "select r1.y, count(*) as n from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
		"where r1.x >= 3 group by r1.y"},
	{"mix3_wide", "select r1.x as a, r2.y as b, r3.x as c from r1 join r2 on r1.x = r2.x " +
		"left join r3 on r2.y = r3.y where r1.y < 3001"},
	{"inner3_groupby", "select r2.y, count(*) as n from r1, r2, r3 where r1.x = r2.x and r2.y = r3.y " +
		"and r1.y < 9001 group by r2.y"},
}

// servingDB is the hit_scan database at reduced scale: supplier at
// 200/1000 rows, the skew instance over 80, and four 1500-row chain
// relations, seeded like the benchmark.
func servingDB() Database {
	sup := datagen.DefaultSupplierConfig
	sup.AggRows, sup.DetailRows, sup.Seed = 200, 1000, 1996
	skew := datagen.DefaultSkewConfig
	skew.FactRows /= 80
	skew.DimRows /= 80
	skew.TagRows /= 80
	skew.JoinDomain = skew.DimRows / 40
	skew.ADomain = skew.DimRows / 40
	skew.Seed = 1996
	db := Database{}
	for _, part := range []Database{
		datagen.Supplier(sup),
		datagen.Skewed(skew),
		datagen.Chain(4, datagen.UniformConfig{Rows: 1500, Domain: 1500, NullFrac: 0.05}, 1996),
	} {
		for name, rel := range part {
			db[name] = rel
		}
	}
	return db
}

// TestHandlerAllocCeiling fails when a cache-hit /query request for a
// hit_scan or hit_point shape, served through Handler() end to end
// (request decode, SQL front end, bind, execution, encoding), allocates
// more than its ceiling — in allocations, and for the hit_scan shapes in
// bytes too. With the shape memo (the front end reduced to lexing) and
// the spliced plan key, the hit_scan shapes took 288/189/189/148/180
// allocations and 67/189/315/220/195 KB at this scale; with their
// single-int64 dense joins and GROUP BYs looked up by key − min (no
// probe-side key hashes or OK flags, no chains) they take
// 287/185/161/141/158 allocations and 67/182/226/197/151 KB. The
// hit_point shapes on their 50-row chains take 199/214/184/145/158
// allocations (215/230/196/149/173 before the dense lookups). Through
// Parse, Parameterize, Lower and plan.Key on every request the hit_scan
// shapes took 567/409/316/261/353 allocations. Measured again before the
// per-node shape cache (plan/shape.go), the hit_scan shapes took
// 290/182/164/141/159 allocations and 68/78/228/195/151 KB, the
// hit_point shapes 202/212/186/147/160; with join output schemas, key
// splits, projection and grouping schemas and the root's column names
// derived once per template node, and the flight record reading the
// run's counters without a registry snapshot, they take
// 245/144/125/111/121 allocations and 59/73/221/196/146 KB, and
// 150/158/138/120/122. Measured again before the request stopped
// re-recording what its annotations, sibling counters and the service
// already hold (queue wait, per-join figures, probe batches), the
// hit_scan shapes took 245/144/125/109/122 allocations and the
// hit_point shapes 150/158/138/120/123; with a hit that meters nothing
// never making its registry's maps, they take 240/136/118/102/113 and
// 142/150/130/112/114. The allocation ceilings leave ~30% headroom, the
// byte ceilings ~20% (bytes move a few percent run to run). Bytes are not checked under the race detector, whose
// sync.Pool drops pooled encode buffers at random.
func TestHandlerAllocCeiling(t *testing.T) {
	ceilings := map[string]float64{
		"supplier":       310,
		"skew_groupby":   175,
		"loj3_groupby":   155,
		"mix3_wide":      135,
		"inner3_groupby": 145,
		"inner5":         185,
		"loj5_complex":   195,
		"mix4_groupby":   170,
		"corr_count":     145,
		"point_loj3":     150,
	}
	byteCeilings := map[string]float64{
		"supplier":       71_000,
		"skew_groupby":   88_000,
		"loj3_groupby":   265_000,
		"mix3_wide":      235_000,
		"inner3_groupby": 175_000,
	}
	scanH := newTestService(t, ServiceConfig{DB: servingDB()}).Handler()
	pointH := newTestService(t, ServiceConfig{DB: shapeMemoDB()}).Handler()
	type shape struct {
		name, sql string
		h         http.Handler
	}
	var shapes []shape
	for _, sh := range servingShapes {
		shapes = append(shapes, shape{sh.name, sh.sql, scanH})
	}
	for _, sh := range hitPointShapes {
		name := sh.name
		if name == "loj3_groupby" {
			name = "point_loj3" // the hit_scan shape of the same text runs on other data
		}
		shapes = append(shapes, shape{name, fmt.Sprintf(sh.text, 7), pointH})
	}
	for _, sh := range shapes {
		h := sh.h
		body, err := json.Marshal(Request{SQL: sh.sql})
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", sh.name, rec.Code, rec.Body)
			}
		}
		serve() // plans the template, builds the images and indexes
		serve()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocations, %.0f B per request", sh.name, allocs, bytes)
		if c := ceilings[sh.name]; allocs > c {
			t.Errorf("%s: %.0f allocations per request, ceiling %.0f", sh.name, allocs, c)
		}
		if c, ok := byteCeilings[sh.name]; ok && !raceEnabled && bytes > c {
			t.Errorf("%s: %.0f B per request, ceiling %.0f", sh.name, bytes, c)
		}
	}
}
