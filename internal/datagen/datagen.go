// Package datagen builds the deterministic synthetic workloads the
// experiments run on: the supplier/part workload of Example 1.1
// (94AGG, 95DETAIL, SUP_DETAIL), the relation tables of Example 2.1,
// and generic chain/star databases with controllable sizes and value
// domains. The paper evaluated against proprietary IBM workloads;
// these generators are the synthetic equivalent, sized so the same
// crossovers (few bankrupt suppliers vs. large detail relations)
// appear.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// SupplierConfig sizes the Example 1.1 workload.
type SupplierConfig struct {
	Suppliers    int     // distinct SUPKEY values
	Parts        int     // distinct PARTKEY values
	AggRows      int     // rows in 94AGG (supplier × part pairs with history)
	DetailRows   int     // rows in 95DETAIL (transactions)
	BankruptFrac float64 // fraction of suppliers rated BANKRUPT
	Seed         int64
}

// DefaultSupplierConfig is a laptop-scale instance preserving the
// paper's proportions: 94AGG is small relative to 95DETAIL.
var DefaultSupplierConfig = SupplierConfig{
	Suppliers:    200,
	Parts:        50,
	AggRows:      1000,
	DetailRows:   20000,
	BankruptFrac: 0.02,
	Seed:         1996,
}

// Supplier generates the three relations of Example 1.1:
//
//	sup_detail(supkey, suprating, supdetail)
//	agg94(supkey, partkey, qty)
//	detail95(supkey, partkey, date, qty)
func Supplier(cfg SupplierConfig) plan.Database {
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := make(plan.Database, 3)

	sup := relation.NewBuilder("sup_detail", "supkey", "suprating", "supdetail").Grow(cfg.Suppliers)
	bankrupt := int(float64(cfg.Suppliers) * cfg.BankruptFrac)
	for s := 0; s < cfg.Suppliers; s++ {
		rating := "OK"
		if s < bankrupt {
			rating = "BANKRUPT"
		}
		sup.Row(
			value.NewInt(int64(s)),
			value.NewString(rating),
			value.NewString(fmt.Sprintf("supplier-%d", s)),
		)
	}
	db["sup_detail"] = sup.Relation()

	agg := relation.NewBuilder("agg94", "supkey", "partkey", "qty").Grow(cfg.AggRows)
	for i := 0; i < cfg.AggRows; i++ {
		agg.Row(
			value.NewInt(int64(rng.Intn(cfg.Suppliers))),
			value.NewInt(int64(rng.Intn(cfg.Parts))),
			value.NewInt(int64(1+rng.Intn(100))),
		)
	}
	db["agg94"] = agg.Relation()

	detail := relation.NewBuilder("detail95", "supkey", "partkey", "date", "qty").Grow(cfg.DetailRows)
	for i := 0; i < cfg.DetailRows; i++ {
		detail.Row(
			value.NewInt(int64(rng.Intn(cfg.Suppliers))),
			value.NewInt(int64(rng.Intn(cfg.Parts))),
			value.NewInt(int64(19950101+rng.Intn(365))),
			value.NewInt(int64(1+rng.Intn(10))),
		)
	}
	db["detail95"] = detail.Relation()
	return db
}

// Example21 builds the exact relations of the paper's Example 2.1.
func Example21() plan.Database {
	s := value.NewString
	r1 := relation.NewBuilder("r1", "a", "b", "c", "f").
		Row(s("a1"), s("b1"), s("c1"), s("f1")).
		Row(s("a2"), s("b1"), s("c1"), s("f2")).
		Row(s("a2"), s("b1"), s("c2"), s("f2")).
		Relation()
	r2 := relation.NewBuilder("r2", "c", "d", "e").
		Row(s("c1"), s("d1"), s("e1")).
		Relation()
	r3 := relation.NewBuilder("r3", "e", "f").
		Row(s("e1"), s("f1")).
		Row(s("e1"), s("f3")).
		Relation()
	return plan.Database{"r1": r1, "r2": r2, "r3": r3}
}

// UniformConfig sizes a generic relation: Rows tuples with integer
// columns x, y drawn uniformly from [0, Domain).
type UniformConfig struct {
	Rows     int
	Domain   int
	NullFrac float64
}

// Uniform builds one relation named name with columns x and y.
func Uniform(rng *rand.Rand, name string, cfg UniformConfig) *relation.Relation {
	b := relation.NewBuilder(name, "x", "y").Grow(cfg.Rows)
	for i := 0; i < cfg.Rows; i++ {
		vals := make([]value.Value, 2)
		for j := range vals {
			if cfg.NullFrac > 0 && rng.Float64() < cfg.NullFrac {
				vals[j] = value.Null
			} else {
				vals[j] = value.NewInt(int64(rng.Intn(cfg.Domain)))
			}
		}
		b.Row(vals...)
	}
	return b.Relation()
}

// Chain builds n relations r1..rn of the given per-relation size,
// suitable for chain queries r1 ⊙ r2 ⊙ … ⊙ rn on x-columns.
func Chain(n int, cfg UniformConfig, seed int64) plan.Database {
	rng := rand.New(rand.NewSource(seed))
	db := make(plan.Database, n)
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("r%d", i)
		db[name] = Uniform(rng, name, cfg)
	}
	return db
}

// Zipf builds a relation whose x column follows a Zipf distribution
// over [0, Domain) with exponent s (>1; larger = more skew) and whose
// y column is uniform. Skewed joins are where reorderings that delay
// the fan-out pay off.
func Zipf(rng *rand.Rand, name string, rows, domain int, s float64) *relation.Relation {
	z := rand.NewZipf(rng, s, 1, uint64(domain-1))
	b := relation.NewBuilder(name, "x", "y").Grow(rows)
	for i := 0; i < rows; i++ {
		b.Row(
			value.NewInt(int64(z.Uint64())),
			value.NewInt(int64(rng.Intn(domain))),
		)
	}
	return b.Relation()
}

// Star builds a center relation r1 plus n satellite relations
// r2..r(n+1), each joinable to the center on x.
func Star(satellites int, cfg UniformConfig, seed int64) plan.Database {
	rng := rand.New(rand.NewSource(seed))
	db := make(plan.Database, satellites+1)
	db["r1"] = Uniform(rng, "r1", cfg)
	for i := 0; i < satellites; i++ {
		name := fmt.Sprintf("r%d", i+2)
		db[name] = Uniform(rng, name, cfg)
	}
	return db
}
