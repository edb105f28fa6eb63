package datagen

import (
	"math/rand"

	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// SkewConfig sizes the feedback-gate workload: a fact table whose
// grouping key is zipfian (a handful of keys own most rows) and whose
// v column is a pure function of the key (v = k mod CorrMod), so the
// optimizer's uniformity and independence assumptions are both wrong
// at once — σ(k=c ∧ v=c′) is estimated as the product of two
// independent selectivities when the true selectivity is that of the
// k conjunct alone. Two dimension tables hang off uniform join
// columns so the misestimate propagates through a join chain and
// flips the optimal join order.
type SkewConfig struct {
	FactRows int // rows in fact(k, v, j)
	DimRows  int // rows in d1(j, a)
	TagRows  int // rows in d2(a, tag)
	// Keys is the fact key domain; zipfian with exponent ZipfS, so
	// key 0 is the heavy hitter. Chosen > 64 by default, so ANALYZE
	// lists only the heavy hitters (keys 0 and 1 on the default
	// instance) and estimates every other key at the mean share of the
	// unlisted keys, below the real share of the next few.
	Keys  int
	ZipfS float64 // zipf exponent (>1; default 1.2)
	// CorrMod makes fact.v = fact.k mod CorrMod — the correlated
	// column pair.
	CorrMod    int
	JoinDomain int // fact.j / d1.j domain
	ADomain    int // d1.a / d2.a domain
	TagDomain  int // d2.tag domain
	Seed       int64
}

// DefaultSkewConfig is the misestimated instance the feedback loop is
// measured on: the static plan's estimate for the filtered fact table
// is off by more than an order of magnitude, so the first execution's
// q-error trips the drift detector.
var DefaultSkewConfig = SkewConfig{
	FactRows:   20000,
	DimRows:    64000,
	TagRows:    2000,
	Keys:       100,
	ZipfS:      1.2,
	CorrMod:    10,
	JoinDomain: 1000,
	ADomain:    1000,
	TagDomain:  10,
	Seed:       2026,
}

// Skewed builds the three-relation feedback workload:
//
//	fact(k, v, j)  — k zipfian, v = k mod CorrMod, j uniform
//	d1(j, a)       — uniform
//	d2(a, tag)     — uniform
//
// Deterministic for a given config (the zipf sampler and every
// uniform draw come from one seeded source).
func Skewed(cfg SkewConfig) plan.Database {
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.CorrMod <= 0 {
		cfg.CorrMod = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
	db := make(plan.Database, 3)

	fact := relation.NewBuilder("fact", "k", "v", "j").Grow(cfg.FactRows)
	for i := 0; i < cfg.FactRows; i++ {
		k := int64(zipf.Uint64())
		fact.Row(
			value.NewInt(k),
			value.NewInt(k%int64(cfg.CorrMod)),
			value.NewInt(int64(rng.Intn(cfg.JoinDomain))),
		)
	}
	db["fact"] = fact.Relation()

	d1 := relation.NewBuilder("d1", "j", "a").Grow(cfg.DimRows)
	for i := 0; i < cfg.DimRows; i++ {
		d1.Row(
			value.NewInt(int64(rng.Intn(cfg.JoinDomain))),
			value.NewInt(int64(rng.Intn(cfg.ADomain))),
		)
	}
	db["d1"] = d1.Relation()

	d2 := relation.NewBuilder("d2", "a", "tag").Grow(cfg.TagRows)
	for i := 0; i < cfg.TagRows; i++ {
		d2.Row(
			value.NewInt(int64(rng.Intn(cfg.ADomain))),
			value.NewInt(int64(rng.Intn(cfg.TagDomain))),
		)
	}
	db["d2"] = d2.Relation()
	return db
}
