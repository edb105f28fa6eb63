package stats

import (
	"math"
	"sort"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// completeTop is the largest number of distinct values a column may
// have and still carry a complete most-common-values list: every value
// with its fraction.
const completeTop = 64

// A column with more distinct values keeps only its heavy hitters: each
// value whose count is at least heavyFactor times the column's mean
// count per distinct value, at most maxHeavy of them.
const (
	heavyFactor = 10
	maxHeavy    = 64
)

// FromDatabase computes exact statistics for every table of db — the
// eager "ANALYZE" of this engine. Each table is analyzed from its
// columnar image, which this builds when no scan has built it yet. The
// service does not call it: its estimator (ForDatabase) analyzes a
// table the first time a plan reads it.
func FromDatabase(db plan.Database) Catalog {
	cat := make(Catalog, len(db))
	for name, rel := range db {
		cat[name] = analyzeTable(rel)
	}
	return cat
}

// analyzeTable computes one table's exact statistics with one typed
// pass over each column of its columnar image (batch.Of), counting
// values by the identity classes value.Key draws: typed columns count
// their payloads directly (a FLOAT column its value.CanonicalFloat
// bits) and only a mixed-kind column pays for a key string per row.
// stats.analyze.tables on obs.Default() counts the calls, so a table
// analyzed more than once shows.
func analyzeTable(rel *relation.Relation) TableStats {
	obs.Default().Counter("stats.analyze.tables").Inc()
	img := batch.Of(rel)
	ts := TableStats{Rows: float64(img.N), Columns: make(map[string]ColumnStats)}
	s := rel.Schema()
	for i := 0; i < s.Len(); i++ {
		if a := s.At(i); !a.Virtual {
			ts.Columns[a.Col] = columnStats(img.Col(i), img.N)
		}
	}
	return ts
}

// columnStats summarises one column of rows rows.
func columnStats(v *batch.Vec, rows int) ColumnStats {
	switch v.Phys {
	case batch.PhysInt:
		freq, nulls := classCounts(v, v.Ints, func(x int64) int64 { return x })
		return summarize(rows, nulls, freq, func(x int64) string { return value.NewInt(x).Key() })
	case batch.PhysFloat:
		freq, nulls := classCounts(v, v.Floats, func(x float64) uint64 { return math.Float64bits(value.CanonicalFloat(x)) })
		return summarize(rows, nulls, freq, func(c uint64) string { return value.NewFloat(math.Float64frombits(c)).Key() })
	case batch.PhysStr:
		freq, nulls := classCounts(v, v.Strs, func(x string) string { return x })
		return summarize(rows, nulls, freq, func(x string) string { return value.NewString(x).Key() })
	case batch.PhysBool:
		freq, nulls := classCounts(v, v.Bools, func(x bool) bool { return x })
		return summarize(rows, nulls, freq, func(x bool) string { return value.NewBool(x).Key() })
	default: // mixed kinds, INT beside FLOAT included: Key draws the classes
		freq, nulls := classCounts(v, v.Any, value.Value.Key)
		return summarize(rows, nulls, freq, func(k string) string { return k })
	}
}

// classCounts counts the non-NULL rows of a typed payload by class,
// and the NULL rows.
func classCounts[T any, K comparable](v *batch.Vec, vals []T, class func(T) K) (freq map[K]int, nulls int) {
	freq = make(map[K]int)
	for i, x := range vals {
		if v.IsNull(i) {
			nulls++
		} else {
			freq[class(x)]++
		}
	}
	return freq, nulls
}

// summarize turns a column's class counts into its ColumnStats; key
// renders a class as the value.Key string the MCV list is looked up by.
// A column with at most completeTop distinct values lists them all. A
// larger one lists its heavy hitters — count ≥ heavyFactor × the mean
// count per distinct value — and records the per-value share of the
// rest, (1 − NullFrac − Σtop) / (Distinct − |top|). When more than
// maxHeavy values qualify, the cut rises above the count of the
// (maxHeavy+1)-th largest, so ties never decide which values stay.
func summarize[K comparable](rows, nulls int, freq map[K]int, key func(K) string) ColumnStats {
	d := len(freq)
	cs := ColumnStats{Distinct: float64(d)}
	if rows == 0 {
		return cs
	}
	cs.NullFrac = float64(nulls) / float64(rows)
	if d == 0 {
		return cs
	}
	if d <= completeTop {
		cs.TopValues = make(map[string]float64, d)
		for k, n := range freq {
			cs.TopValues[key(k)] = float64(n) / float64(rows)
		}
		return cs
	}
	nonNull := rows - nulls
	minCount := (heavyFactor*nonNull + d - 1) / d // n·d ≥ heavyFactor·nonNull
	var heavy []int
	for _, n := range freq {
		if n >= minCount {
			heavy = append(heavy, n)
		}
	}
	if len(heavy) == 0 {
		return cs
	}
	if len(heavy) > maxHeavy {
		sort.Sort(sort.Reverse(sort.IntSlice(heavy)))
		minCount = heavy[maxHeavy] + 1
	}
	cs.TopValues = make(map[string]float64, min(len(heavy), maxHeavy))
	listed := 0
	for k, n := range freq {
		if n >= minCount {
			cs.TopValues[key(k)] = float64(n) / float64(rows)
			listed += n
		}
	}
	cs.Rest = float64(nonNull-listed) / float64(rows) / float64(d-len(cs.TopValues))
	return cs
}
