package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/batch"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// tupleWalk is the reference ANALYZE: one walk over the tuples per
// column, one value.Key string per non-NULL cell. analyzeTable must
// produce exactly its catalog.
func tupleWalk(db plan.Database) Catalog {
	cat := make(Catalog, len(db))
	for name, rel := range db {
		ts := TableStats{Rows: float64(rel.Len()), Columns: make(map[string]ColumnStats)}
		s := rel.Schema()
		for i := 0; i < s.Len(); i++ {
			a := s.At(i)
			if a.Virtual {
				continue
			}
			freq := make(map[string]int)
			nulls := 0
			for _, t := range rel.Tuples() {
				v := t[i]
				if v.IsNull() {
					nulls++
					continue
				}
				freq[v.Key()]++
			}
			cs := ColumnStats{Distinct: float64(len(freq))}
			if rel.Len() > 0 {
				cs.NullFrac = float64(nulls) / float64(rel.Len())
			}
			// The list: every class of a column with at most 64, else
			// the classes holding ≥ 10× the mean count per class — the
			// 64 largest, less any tied at the 65th count.
			listed := map[string]bool{}
			if len(freq) > 0 && len(freq) <= 64 && rel.Len() > 0 {
				for k := range freq {
					listed[k] = true
				}
			} else if len(freq) > 64 {
				nonNull := rel.Len() - nulls
				var heavy []int
				for k, n := range freq {
					if n*len(freq) >= 10*nonNull {
						listed[k] = true
						heavy = append(heavy, n)
					}
				}
				if len(heavy) > 64 {
					sort.Sort(sort.Reverse(sort.IntSlice(heavy)))
					for k := range listed {
						if freq[k] <= heavy[64] {
							delete(listed, k)
						}
					}
				}
				if len(listed) > 0 {
					rest := nonNull
					for k := range listed {
						rest -= freq[k]
					}
					cs.Rest = float64(rest) / float64(rel.Len()) / float64(len(freq)-len(listed))
				}
			}
			if len(listed) > 0 {
				cs.TopValues = make(map[string]float64, len(listed))
				for k := range listed {
					cs.TopValues[k] = float64(freq[k]) / float64(rel.Len())
				}
			}
			ts.Columns[a.Col] = cs
		}
		cat[name] = ts
	}
	return cat
}

// oneColumn builds a one-column relation c over vals.
func oneColumn(name string, vals ...value.Value) *relation.Relation {
	b := relation.NewBuilder(name, "c")
	for _, v := range vals {
		b.Row(v)
	}
	return b.Relation()
}

// distinctInts returns n distinct INTs, each repeated i%3+1 times, so
// the MCV fractions differ.
func distinctInts(n int) []value.Value {
	var out []value.Value
	for i := 0; i < n; i++ {
		for r := 0; r <= i%3; r++ {
			out = append(out, value.NewInt(int64(i)))
		}
	}
	return out
}

// edgeDB holds the relations whose columns exercise every class rule
// of value.Key and both sides of the MCV cut-off.
func edgeDB() plan.Database {
	i, f, s := value.NewInt, value.NewFloat, value.NewString
	null := value.Null
	db := plan.Database{
		"empty":    relation.NewBuilder("empty", "a", "b").Relation(),
		"one":      relation.NewBuilder("one", "a", "b").Row(i(7), s("x")).Relation(),
		"allnull":  relation.NewBuilder("allnull", "a", "b").Row(null, i(1)).Row(null, i(2)).Row(null, null).Relation(),
		"mixed":    oneColumn("mixed", i(1), s("1"), s("a"), i(1), null, s("a")),
		"intfloat": oneColumn("intfloat", i(1), f(1.0), i(1), null),
		"zeros":    oneColumn("zeros", f(math.Copysign(0, -1)), f(0), f(0), null),
		"nan":      oneColumn("nan", f(math.NaN()), f(math.Float64frombits(0x7ff8000000000002)), f(math.Float64frombits(0xfff8000000000000)), f(2.5), f(math.Inf(1)), f(math.Inf(-1))),
		"huge":     oneColumn("huge", f(1e15), f(-1e15), f(1e16), f(-1e16), f(1e16), f(2e15+1), f(0.1)),
		"mixhuge":  oneColumn("mixhuge", i(1e16), f(1e16), i(3), f(3.5)),
		"bools":    oneColumn("bools", value.NewBool(true), value.NewBool(false), null, value.NewBool(true)),
		"strs":     oneColumn("strs", s(""), s("a"), null, s("a"), s("i1")),
		"top64":    oneColumn("top64", distinctInts(64)...),
		"top65":    oneColumn("top65", distinctInts(65)...),
	}
	// Heavy hitters of high-cardinality columns: see heavyDB.
	for name, rel := range heavyDB() {
		db[name] = rel
	}
	sorted := relation.NewBuilder("sorted", "k", "v")
	for k := 0; k < 40; k++ {
		sorted.Row(i(int64(k/2)), f(float64(k)/3))
	}
	db["sorted"] = sorted.Relation()
	return db
}

// heavyDB holds high-cardinality columns around the heavy-hitter rule:
//
//   - cutoff: 100 classes over 200 rows (mean 2, cut 20): 64 and 20
//     are listed, 19 — one under the cut — is not;
//   - nullheavy: 900 NULLs and 100 values over 70 classes (cut ⌈1000/70⌉
//     = 15): only the 31-row value is listed;
//   - anyheavy: a mixed-kind column of 80 classes over 168 rows (cut
//     21): INT 0 with FLOAT 0 and −0 (one class, 50 rows) and 'a' (40).
func heavyDB() plan.Database {
	i, f, s := value.NewInt, value.NewFloat, value.NewString
	rep := func(v value.Value, n int) []value.Value {
		out := make([]value.Value, n)
		for j := range out {
			out[j] = v
		}
		return out
	}
	var cutoff []value.Value
	cutoff = append(cutoff, rep(i(1000), 64)...)
	cutoff = append(cutoff, rep(i(2000), 20)...)
	cutoff = append(cutoff, rep(i(3000), 19)...)
	for j := 0; j < 97; j++ {
		cutoff = append(cutoff, i(int64(j)))
	}
	nullheavy := rep(value.Null, 900)
	nullheavy = append(nullheavy, rep(s("heavy"), 31)...)
	for j := 0; j < 69; j++ {
		nullheavy = append(nullheavy, s(fmt.Sprint("v", j)))
	}
	var anyheavy []value.Value
	anyheavy = append(anyheavy, rep(i(0), 30)...)
	anyheavy = append(anyheavy, rep(f(0), 10)...)
	anyheavy = append(anyheavy, rep(f(math.Copysign(0, -1)), 10)...)
	anyheavy = append(anyheavy, rep(s("a"), 40)...)
	for j := 0; j < 78; j++ {
		anyheavy = append(anyheavy, s(fmt.Sprint("x", j)))
	}
	return plan.Database{
		"cutoff":    oneColumn("cutoff", cutoff...),
		"nullheavy": oneColumn("nullheavy", nullheavy...),
		"anyheavy":  oneColumn("anyheavy", anyheavy...),
	}
}

// checkAnalyze compares analyzeTable against the tuple walk on every
// table of db.
func checkAnalyze(t *testing.T, label string, db plan.Database) {
	t.Helper()
	want := tupleWalk(db)
	for name, rel := range db {
		if got := analyzeTable(rel); !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s/%s:\n got  %+v\n want %+v", label, name, got, want[name])
		}
	}
}

// TestAnalyzeMatchesTupleWalk: the typed pass over the columnar image
// and the tuple walk agree on every statistic, MCV keys and fractions
// included.
func TestAnalyzeMatchesTupleWalk(t *testing.T) {
	checkAnalyze(t, "chain", datagen.Chain(4, datagen.UniformConfig{Rows: 400, Domain: 50, NullFrac: 0.15}, 7))
	checkAnalyze(t, "skewed", datagen.Skewed(datagen.DefaultSkewConfig))
	checkAnalyze(t, "supplier", datagen.Supplier(datagen.DefaultSupplierConfig))
	rng := rand.New(rand.NewSource(3))
	checkAnalyze(t, "uniform", plan.Database{
		"u": datagen.Uniform(rng, "u", datagen.UniformConfig{Rows: 1000, Domain: 64}),
		"w": datagen.Uniform(rng, "w", datagen.UniformConfig{Rows: 1000, Domain: 65, NullFrac: 0.5}),
	})
	for seed := int64(1); seed <= 120; seed++ {
		checkAnalyze(t, fmt.Sprintf("random%d", seed), datagen.RandomJoinDB(rand.New(rand.NewSource(seed)), 6))
	}
	db := edgeDB()
	checkAnalyze(t, "edge", db)

	// The premises the edge tables are there for.
	cat := FromDatabase(db)
	for _, c := range []struct {
		table    string
		distinct float64
		top      bool
	}{
		{"empty", 0, false}, {"one", 1, true}, {"mixed", 3, true}, {"intfloat", 1, true},
		{"zeros", 1, true}, {"nan", 4, true}, {"huge", 6, true}, {"mixhuge", 3, true},
		{"top64", 64, true}, {"top65", 65, false},
	} {
		col := "c"
		if c.table == "empty" || c.table == "one" {
			col = "a"
		}
		cs := cat[c.table].Columns[col]
		if cs.Distinct != c.distinct || (cs.TopValues != nil) != c.top {
			t.Errorf("%s.%s: distinct %v, MCV list %v; want %v, %v", c.table, col, cs.Distinct, cs.TopValues != nil, c.distinct, c.top)
		}
	}
	if got := cat["intfloat"].Columns["c"].TopValues; len(got) != 1 || got["i1"] != 0.75 {
		t.Errorf("INT 1 beside FLOAT 1.0: MCV list %v, want one class i1 at 0.75", got)
	}
	// An integral FLOAT is the INT it converts to exactly, at any
	// magnitude: INT and FLOAT 1e16 are one class.
	if got := cat["mixhuge"].Columns["c"].TopValues[value.NewInt(1e16).Key()]; got != 0.5 {
		t.Errorf("INT 1e16 beside FLOAT 1e16: listed at %v, want one class at 0.5", got)
	}
	if got := cat["huge"].Columns["c"].TopValues[value.NewInt(1e16).Key()]; got != 2.0/7 {
		t.Errorf("FLOAT 1e16 twice: listed under INT 1e16's key at %v, want 2/7", got)
	}
	if got := cat["allnull"].Columns["a"]; got.Distinct != 0 || got.NullFrac != 1 || got.TopValues != nil {
		t.Errorf("all-NULL column: %+v", got)
	}
	// share is the rest's per-class share: rest rows over the table's
	// rows, over the unlisted classes.
	share := func(rest, rows, classes int) float64 { return float64(rest) / float64(rows) / float64(classes) }
	for _, c := range []struct {
		table     string
		distinct  float64
		listed    []value.Value
		notListed []value.Value
		nullFrac  float64
		rest      float64
	}{
		{"cutoff", 100, []value.Value{value.NewInt(1000), value.NewInt(2000)}, []value.Value{value.NewInt(3000), value.NewInt(5)}, 0, share(116, 200, 98)},
		{"nullheavy", 70, []value.Value{value.NewString("heavy")}, []value.Value{value.NewString("v0"), value.Null}, 0.9, share(69, 1000, 69)},
		{"anyheavy", 80, []value.Value{value.NewInt(0), value.NewFloat(math.Copysign(0, -1)), value.NewString("a")}, []value.Value{value.NewString("x0"), value.NewString("0")}, 0, share(78, 168, 78)},
	} {
		cs := cat[c.table].Columns["c"]
		if cs.Distinct != c.distinct || cs.NullFrac != c.nullFrac || cs.Rest != c.rest || cs.TopValues == nil {
			t.Errorf("%s: %+v; want distinct %v, null fraction %v, rest %v and a list", c.table, cs, c.distinct, c.nullFrac, c.rest)
			continue
		}
		for _, v := range c.listed {
			if _, ok := cs.TopValues[v.Key()]; !ok {
				t.Errorf("%s: %v is not listed", c.table, v)
			}
		}
		for _, v := range c.notListed {
			if frac, ok := cs.TopValues[v.Key()]; ok {
				t.Errorf("%s: %v is listed at %v", c.table, v, frac)
			}
			if got := cs.eqSelectivity(v); got != c.rest {
				t.Errorf("%s: selectivity of unlisted %v is %v, want the rest's share %v", c.table, v, got, c.rest)
			}
		}
	}
	if got := cat["anyheavy"].Columns["c"].TopValues[value.NewFloat(0).Key()]; got != 50.0/168 {
		t.Errorf("anyheavy: INT 0, FLOAT 0 and −0 listed at %v, want one class at 50/168", got)
	}
	for name, want := range map[string]batch.Phys{"mixed": batch.PhysAny, "intfloat": batch.PhysAny, "nan": batch.PhysFloat, "bools": batch.PhysBool, "strs": batch.PhysStr, "anyheavy": batch.PhysAny, "nullheavy": batch.PhysStr} {
		if got := batch.Of(db[name]).Col(0).Phys; got != want {
			t.Errorf("premise: %s is %s, want %s", name, got, want)
		}
	}
}

// TestAnalyzeAllocCeiling: analyzing the 150k-row detail95 of the
// hit_scan workload from its already built image allocates a few
// hundred times at most (the tuple walk allocated 824 839 times: a key
// string per cell). Not run under -race, which changes the counts.
func TestAnalyzeAllocCeiling(t *testing.T) {
	cfg := datagen.DefaultSupplierConfig
	cfg.AggRows, cfg.DetailRows = 2000, 150000
	rel := datagen.Supplier(cfg)["detail95"]
	batch.Of(rel)
	allocs := testing.AllocsPerRun(3, func() { analyzeTable(rel) })
	t.Logf("analyzing detail95: %.0f allocations", allocs)
	if allocs > 1000 {
		t.Errorf("analyzing detail95 took %.0f allocations, ceiling 1000", allocs)
	}
}

// TestAnalyzeOnFirstUse: a ForDatabase estimator analyzes nothing at
// construction, analyzes a table the first time an estimate reads it —
// exactly once however many goroutines ask at the same time — and
// never analyzes a table no estimate reads. The statistics are a
// snapshot taken at that first read.
func TestAnalyzeOnFirstUse(t *testing.T) {
	db := testDB()
	db["unread"] = relation.NewBuilder("unread", "z").Row(value.NewInt(1)).Relation()
	analyzed := obs.Default().Counter("stats.analyze.tables")
	images := obs.Default().Counter("exec.image.builds")
	before, imgBefore := analyzed.Value(), images.Value()
	est := ForDatabase(db)
	if got := analyzed.Value() - before; got != 0 {
		t.Fatalf("construction analyzed %d tables", got)
	}
	join := plan.NewJoin(plan.InnerJoin, expr.EqCols("r1", "x", "r2", "x"), plan.NewScan("r1"), plan.NewScan("r2"))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := est.NewSession(obs.NewRegistry())
			if _, err := sess.PlanCost(join); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := analyzed.Value() - before; got != 2 {
		t.Fatalf("16 concurrent first estimates over r1 and r2 analyzed %d tables, want 2", got)
	}
	if got := images.Value() - imgBefore; got != 2 {
		t.Fatalf("analysis built %d images, want 2", got)
	}
	want := tupleWalk(db)
	for _, name := range []string{"r1", "r2"} {
		if ts, _ := est.table(name); !reflect.DeepEqual(*ts, want[name]) {
			t.Errorf("%s: lazy statistics differ from the tuple walk", name)
		}
	}

	db["r1"].Append(relation.Tuple{value.NewInt(1), value.NewInt(1), value.NewInt(100)})
	if rows, _ := est.Rows(plan.NewScan("r1")); rows != 100 {
		t.Errorf("rows appended after first use changed the estimate to %v", rows)
	}
	if got := analyzed.Value() - before; got != 2 {
		t.Errorf("later estimates analyzed again (%d analyses); unread was analyzed or r1 re-analyzed", got)
	}
	db["unread"].Append(relation.Tuple{value.NewInt(2), value.NewInt(1)})
	if rows, _ := est.Rows(plan.NewScan("unread")); rows != 2 {
		t.Errorf("rows appended before first use: estimate %v, want 2", rows)
	}
}
