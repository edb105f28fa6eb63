package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro"
	"repro/internal/datagen"
)

// constRange is the domain [lo, lo+n) one template constant is drawn
// from. The domains are small on purpose: every distinct (template,
// constants) pair is checked against the as-written plan, so their
// number bounds the checking work.
type constRange struct{ lo, n int }

// template is one query shape; sql fills in fresh constants, so
// requests of one template share a parameterized plan but not their
// literals.
type template struct {
	name   string
	text   string // one %d verb per constant
	consts []constRange
}

func (t template) sql(rng *rand.Rand) string {
	vals := make([]any, len(t.consts))
	for i, c := range t.consts {
		vals[i] = c.lo + rng.Intn(c.n)
	}
	return fmt.Sprintf(t.text, vals...)
}

// request is one generated query submission.
type request struct {
	tpl   int // index into the workload's templates
	sql   string
	cache string // reorder.Request.Cache
}

// workload is one traffic mix with the database it runs on. Nothing in
// here reaches the service except the generated SQL, the Cache field
// and the ServiceConfig fields tune sets.
type workload struct {
	name string
	why  string
	// db generates the database; reduced selects the small copy the
	// plan.Eval reference is affordable on. The data does not depend on
	// -seed (see dataSeed).
	db func(reduced bool) reorder.Database
	// tune adjusts the service configuration beyond DB and
	// DefaultTimeout (nil = defaults).
	tune func(*reorder.ServiceConfig)
	// cache is sent as Request.Cache with every request.
	cache     string
	templates func() []template
	// mix returns a generator of template-index blocks; a stream plays
	// block after block.
	mix func(rng *rand.Rand, templates int) func() []int
	// warm is the number of untimed warm-up requests.
	warm int
	// probe, when set, is one extra query the traced pass sends with
	// the cache bypassed to report its optimization time on its own.
	probe string
}

// evenMix plays every template exactly once per block, in a shuffled
// order, so each template's share of a run is fixed and the latency
// quantiles do not move with the luck of the draw.
func evenMix(rng *rand.Rand, templates int) func() []int {
	return func() []int { return rng.Perm(templates) }
}

// dataSeed generates every database and the churn template family.
// The -seed flag drives the request streams only: with the data drawn
// from it too, results moved by several percent from seed to seed for
// no other reason than the join fan-outs of one random instance, and
// two runs could not be compared unless their seeds matched.
const dataSeed = 1996

// Dataset sizes, frozen. They are tuned on a 2-core host so that the
// layer shares stated in README.md hold; changing one changes what
// the benchmark measures.
const (
	pointRows, pointDomain = 50, 50

	scanDetailRows, scanAggRows = 150000, 2000
	scanChainRows               = 15000

	coldRows, coldDomain = 300, 150

	churnFamily    = 300  // LOJ-chain templates in the churn family
	churnZipfS     = 1.1  // popularity skew over the family
	churnSkewEvery = 10   // one request in this many is the misestimated template
	churnCacheKiB  = 208  // plan cache budget that keeps the hit ratio in 0.5–0.8
	churnRows      = 300  // rows per chain relation
	churnDomain    = 150  // value domain of the chain relations
	skewScaleDenom = 4    // churn/scan skew data = DefaultSkewConfig / this
	reducedRows    = 30   // chain rows in the reduced copies
	reducedDetail  = 1000 // detail95 rows in the reduced supplier copy
)

func chainDB(n, rows, domain int, reduced bool) reorder.Database {
	if reduced {
		rows = reducedRows
		if domain > reducedRows {
			domain = reducedRows
		}
	}
	return datagen.Chain(n, datagen.UniformConfig{Rows: rows, Domain: domain, NullFrac: 0.05}, dataSeed)
}

// skewDB is datagen.Skewed scaled down from the default instance; the
// zipf share of key 0, and with it the q-error of the static plan,
// does not depend on the size.
func skewDB(reduced bool) reorder.Database {
	cfg := datagen.DefaultSkewConfig
	denom := skewScaleDenom
	if reduced {
		denom = 80
	}
	cfg.FactRows /= denom
	cfg.DimRows /= denom
	cfg.TagRows /= denom
	cfg.JoinDomain = cfg.DimRows / 40
	cfg.ADomain = cfg.DimRows / 40
	cfg.Seed = dataSeed
	return datagen.Skewed(cfg)
}

// supplierDB is the Example 1.1 database at benchmark scale.
func supplierDB(reduced bool) reorder.Database {
	sup := datagen.DefaultSupplierConfig
	sup.AggRows, sup.DetailRows, sup.Seed = scanAggRows, scanDetailRows, dataSeed
	if reduced {
		sup.AggRows, sup.DetailRows = scanAggRows/10, reducedDetail
	}
	return datagen.Supplier(sup)
}

func merge(dbs ...reorder.Database) reorder.Database {
	out := reorder.Database{}
	for _, db := range dbs {
		for name, rel := range db {
			out[name] = rel
		}
	}
	return out
}

const skewQuery = "select fact.k, count(*) as n from fact, d1, d2 " +
	"where fact.j = d1.j and d1.a = d2.a and fact.k = 0 and fact.v = 0 and d2.tag = %d group by fact.k"

var workloads = []*workload{
	{
		name: "hit_point",
		why:  "cached templates on tiny data: the serving path (HTTP, SQL front end, key, bind, cache lookup, encode) does most of the work",
		db: func(reduced bool) reorder.Database {
			return merge(chainDB(7, pointRows, pointDomain, reduced), supplierDB(reduced))
		},
		templates: func() []template {
			return []template{
				{name: "inner5", consts: []constRange{{4, 12}},
					text: "select r1.x, r5.y from r1, r2, r3, r4, r5 " +
						"where r1.x = r2.x and r2.y = r3.y and r3.x = r4.x and r4.y = r5.y and r1.y < %d"},
				{name: "loj5_complex", consts: []constRange{{4, 12}},
					text: "select r1.x, r5.y from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
						"left join r4 on r3.x = r4.x and r4.y >= r1.y left join r5 on r4.y = r5.y where r1.y < %d"},
				{name: "mix4_groupby", consts: []constRange{{4, 12}},
					text: "select r1.y, count(*) as n from r1 join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
						"left join r4 on r3.x = r4.x where r1.x < %d group by r1.y"},
				{name: "corr_count", consts: []constRange{{4, 12}},
					text: "select r1.x from r1 where r1.y < %d and r1.x >= (select count(*) from r2 where r2.y = r1.y)"},
				{name: "loj3_groupby", consts: []constRange{{30, 12}},
					text: "select r1.y, count(*) as n from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
						"where r1.x >= %d group by r1.y"},
			}
		},
		mix:  evenMix,
		warm: 50,
	},
	{
		name: "hit_scan",
		why:  "cached templates on large data: execution is over 90% of the request, so executor speed and plan quality show and serving overhead does not",
		db: func(reduced bool) reorder.Database {
			return merge(supplierDB(reduced), skewDB(reduced), chainDB(4, scanChainRows, scanChainRows, reduced))
		},
		templates: func() []template {
			return []template{
				// Example 1.1 of the paper: the as-written plan
				// aggregates all of detail95 before the outer join.
				{name: "supplier", consts: []constRange{{2, 2}},
					text: "select v2.supkey as supkey, v2.partkey as partkey, v2.qty as qty, v3.aggqty95 as aggqty95 " +
						"from (select agg94.supkey as supkey, agg94.partkey as partkey, agg94.qty as qty " +
						"from agg94, sup_detail where agg94.supkey = sup_detail.supkey and sup_detail.suprating = 'BANKRUPT') as v2 " +
						"left outer join (select supkey, partkey, count(*) as aggqty95 from detail95 group by supkey, partkey) as v3 " +
						"on v2.supkey = v3.supkey and v2.partkey = v3.partkey and v2.qty < %d * v3.aggqty95"},
				{name: "skew_groupby", consts: []constRange{{0, 4}}, text: skewQuery},
				{name: "loj3_groupby", consts: []constRange{{2, 4}},
					text: "select r1.y, count(*) as n from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
						"where r1.x >= %d group by r1.y"},
				{name: "mix3_wide", consts: []constRange{{3000, 4}},
					text: "select r1.x as a, r2.y as b, r3.x as c from r1 join r2 on r1.x = r2.x " +
						"left join r3 on r2.y = r3.y where r1.y < %d"},
				// A fifth template keeps the median inside one
				// template's latency mode; with four equally weighted
				// ones it would sit on the gap between two.
				{name: "inner3_groupby", consts: []constRange{{9000, 4}},
					text: "select r2.y, count(*) as n from r1, r2, r3 where r1.x = r2.x and r2.y = r3.y " +
						"and r1.y < %d group by r2.y"},
			}
		},
		mix:  evenMix,
		warm: 15,
	},
	{
		name: "cold_plan",
		why:  "every request bypasses the plan cache on small data: enumeration, pruning and costing are over 90% of the request",
		db: func(reduced bool) reorder.Database {
			return chainDB(7, coldRows, coldDomain, reduced)
		},
		cache: "bypass",
		templates: func() []template {
			return []template{
				{name: "loj5_complex", consts: []constRange{{0, 20}},
					text: "select r1.x, r5.y from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y and r3.x >= r1.y " +
						"left join r4 on r3.x = r4.x left join r5 on r4.y = r5.y and r5.x >= r1.y where r1.y = %d"},
				{name: "inner4_loj", consts: []constRange{{0, 20}},
					text: "select r1.y, r5.x from r1 join r2 on r1.x = r2.x join r3 on r2.y = r3.y join r4 on r3.x = r4.x " +
						"left join r5 on r4.y = r5.y where r1.x = %d"},
				{name: "star4_complex", consts: []constRange{{0, 20}},
					text: "select r1.x, r4.y from r1, r2, r3, r4 " +
						"where r1.x = r2.x and r1.y = r3.y and r1.x = r4.x and r2.y < r3.x + r4.y and r1.y = %d"},
				{name: "loj6", consts: []constRange{{0, 20}},
					text: "select r1.x, r6.y from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
						"left join r4 on r3.x = r4.x left join r5 on r4.y = r5.y left join r6 on r5.x = r6.x where r1.y = %d"},
				{name: "mix5_groupby", consts: []constRange{{0, 20}},
					text: "select r1.y, count(*) as n from r1 join r2 on r1.x = r2.x join r3 on r2.y = r3.y " +
						"left join r4 on r3.x = r4.x left join r5 on r4.y = r5.y where r1.x = %d group by r1.y"},
			}
		},
		mix:  evenMix,
		warm: 5,
		// The 6-relation inner "serving chain" of cmd/benchserve: far
		// above the band of the templates, so it is timed on its own.
		probe: "select r1.x from r1, r2, r3, r4, r5, r6 " +
			"where r1.x = r2.x and r2.x = r3.x and r3.y = r4.y and r4.x = r5.x and r5.y = r6.y and r1.y = 3 and r6.x = 4",
	},
	{
		name: "churn_feedback",
		why:  "feedback on, a zipfian template family larger than the plan cache, and a misestimated template: cache writes, evictions, re-planning and instrumented adaptive execution all run",
		db: func(reduced bool) reorder.Database {
			return merge(chainDB(7, churnRows, churnDomain, reduced), skewDB(reduced))
		},
		tune: func(cfg *reorder.ServiceConfig) {
			cfg.Feedback = true
			cfg.CacheBytes = churnCacheKiB << 10
		},
		templates: churnTemplates,
		mix: func(rng *rand.Rand, templates int) func() []int {
			// The family is every template but the last, which is
			// the skew template.
			zipf := rand.NewZipf(rng, churnZipfS, 1, uint64(templates-2))
			return func() []int {
				block := make([]int, churnSkewEvery)
				for i := range block {
					block[i] = int(zipf.Uint64())
				}
				block[rng.Intn(len(block))] = templates - 1
				return block
			}
		},
		warm: 400,
	},
}

// churnTemplates generates the family: ordered 4-subsets
// of r1..r7 joined as a left-outer-join chain, alternating the join
// column, plus the misestimated skew template at the end.
func churnTemplates() []template {
	rng := rand.New(rand.NewSource(dataSeed))
	seen := make(map[string]bool, churnFamily)
	out := make([]template, 0, churnFamily+1)
	for len(out) < churnFamily {
		p := rng.Perm(7)[:4]
		name := fmt.Sprintf("loj_%d%d%d%d", p[0]+1, p[1]+1, p[2]+1, p[3]+1)
		if seen[name] {
			continue
		}
		seen[name] = true
		r := func(i int) string { return fmt.Sprintf("r%d", p[i]+1) }
		var b strings.Builder
		fmt.Fprintf(&b, "select %s.x as a, %s.y as b from %s", r(0), r(3), r(0))
		for i := 1; i < 4; i++ {
			col := "x"
			if i%2 == 0 {
				col = "y"
			}
			fmt.Fprintf(&b, " left join %s on %s.%s = %s.%s", r(i), r(i-1), col, r(i), col)
		}
		fmt.Fprintf(&b, " where %s.y = %%d", r(0))
		out = append(out, template{name: name, text: b.String(), consts: []constRange{{0, 3}}})
	}
	return append(out, template{name: "skew_groupby", text: skewQuery, consts: []constRange{{0, 4}}})
}

// stream is one client's deterministic request sequence: the same
// workload, seed and client always give the same requests.
type stream struct {
	w     *workload
	tpls  []template
	rng   *rand.Rand
	block func() []int
	queue []int
}

func newStream(w *workload, tpls []template, seed int64, client int) *stream {
	// The warm-up (client -1) and the timed session (client 0) draw
	// from disjoint seeds; 7919 keeps those of neighbouring -seed
	// values apart too.
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return &stream{w: w, tpls: tpls, rng: rng, block: w.mix(rng, len(tpls))}
}

// atBlockStart reports whether the next request opens a new block.
func (s *stream) atBlockStart() bool { return len(s.queue) == 0 }

func (s *stream) next() request {
	if len(s.queue) == 0 {
		s.queue = s.block()
	}
	tpl := s.queue[0]
	s.queue = s.queue[1:]
	return request{tpl: tpl, sql: s.tpls[tpl].sql(s.rng), cache: s.w.cache}
}

// checkedSample returns the template indices the per-template checks
// visit: all of them up to 64, else every step-th and the last, so the
// 300-template family costs no more to check than it does to run.
func checkedSample(templates int) []int {
	step := (templates + 63) / 64
	var idx []int
	for i := 0; i < templates; i += step {
		idx = append(idx, i)
	}
	if last := templates - 1; idx[len(idx)-1] != last {
		idx = append(idx, last)
	}
	return idx
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
