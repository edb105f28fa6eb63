package executor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/value"
)

// The dense/hashed differential: the dense lookup (a join build side
// indexed by key − min, a GROUP BY slot per key) must reproduce the
// hashed path's output exactly — the same selection vectors element for
// element, the same groups in the same order — not merely the same
// multiset, because float sums above joins and groups accumulate in
// that order.

// keyRel is the columnar relation name(k, v): k the int64 key (NULL
// where null says), v a payload the residual compares.
func keyRel(name string, keys []int64, null func(i int) bool) *batch.Rel {
	k := batch.Vec{Phys: batch.PhysInt, Ints: make([]int64, len(keys))}
	v := batch.Vec{Phys: batch.PhysInt, Ints: make([]int64, len(keys))}
	for i, x := range keys {
		if null != nil && null(i) {
			k.SetNull(i, len(keys))
		} else {
			k.Ints[i] = x
		}
		v.Ints[i] = int64(i*7%11) - 5
	}
	s := schema.New(schema.Attr(name, "k"), schema.Attr(name, "v"))
	return batch.NewRel(s, []batch.Vec{k, v}, len(keys))
}

func randKeys(rng *rand.Rand, n int, lo, hi int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + rng.Int63n(hi-lo+1)
	}
	return out
}

// denseCases are build/probe key columns at the edges of the dense
// rule. dense says whether the build side qualifies.
func denseCases() []struct {
	name         string
	probe, build []int64
	pnull, bnull func(int) bool
	dense        bool
} {
	rng := rand.New(rand.NewSource(35))
	every := func(n int) func(int) bool { return func(i int) bool { return i%n == 0 } }
	all := func(int) bool { return true }
	const lo, hi = math.MinInt64, math.MaxInt64
	return []struct {
		name         string
		probe, build []int64
		pnull, bnull func(int) bool
		dense        bool
	}{
		{"negatives", randKeys(rng, 60, -9, 9), randKeys(rng, 25, -6, 5), every(7), every(5), true},
		{"int64 extremes", []int64{lo, hi, 0, 1, lo + 1}, []int64{lo, hi, 0, hi}, nil, nil, false},
		{"near min, wrapped probes", []int64{hi, lo, lo + 2, -1, hi - 1, lo + 3}, []int64{lo, lo + 1, lo + 2, lo}, nil, nil, true},
		{"near max, wrapped probes", []int64{lo, hi, lo + 1, hi - 1, 0, hi - 3}, []int64{hi, hi - 1, hi, hi - 2}, nil, nil, true},
		{"span 2n+1", randKeys(rng, 30, -2, 13), []int64{0, 11, 3, 3, 5}, every(4), nil, true},
		{"span 2n+2", randKeys(rng, 30, -2, 14), []int64{0, 12, 3, 3, 5}, every(4), nil, false},
		{"all-NULL build", randKeys(rng, 20, 0, 3), []int64{1, 2, 3}, nil, all, true},
		{"all-NULL probe", []int64{1, 2, 3}, randKeys(rng, 20, 0, 3), all, nil, true},
		{"empty build", randKeys(rng, 20, 0, 3), nil, nil, nil, true},
		{"empty probe", nil, randKeys(rng, 20, 0, 3), nil, nil, true},
		{"heavy duplicates", randKeys(rng, 50, -1, 3), randKeys(rng, 300, 0, 2), every(9), every(31), true},
	}
}

// TestDenseJoinMatchesHashed: on every case, join kind, with and
// without a residual, straight and mirrored (buildFirst, as a swapped
// join calls it), at batch sizes 3 and 1024, the dense lookup's
// selection vectors are the hashed lookup's, element for element — and
// the dispatching hashJoin takes the dense path exactly when the build
// side qualifies.
func TestDenseJoinMatchesHashed(t *testing.T) {
	kinds := []plan.JoinKind{plan.InnerJoin, plan.LeftJoin, plan.RightJoin, plan.FullJoin}
	residuals := []expr.Pred{expr.True{}, expr.Cmp{Op: value.LT, L: expr.Column("p", "v"), R: expr.Column("b", "v")}}
	for _, c := range denseCases() {
		probe, build := keyRel("p", c.probe, c.pnull), keyRel("b", c.build, c.bnull)
		key := []int{0}
		if dl, _ := denseLookup(probe, build, key, key); (dl != nil) != c.dense {
			t.Fatalf("%s: dense lookup %v, want %v", c.name, dl != nil, c.dense)
		}
		for _, kind := range kinds {
			for ri, residual := range residuals {
				for _, buildFirst := range []bool{false, true} {
					for _, bs := range []int{3, 1024} {
						name := fmt.Sprintf("%s/%s/residual=%d/buildFirst=%v/batch=%d", c.name, kind, ri, buildFirst, bs)
						env, k := probe.Schema.Concat(build.Schema), kind
						if buildFirst {
							env, k = build.Schema.Concat(probe.Schema), mirrorKind(kind)
						}
						e := &vecEngine{batch: bs, reg: obs.NewRegistry()}
						st := &joinProbe{}
						psel, bsel, err := e.hashJoin(k, residual, env, probe, build, key, key, buildFirst, st)
						if err != nil {
							t.Fatal(err)
						}
						if want := map[bool]string{true: "dense", false: "hash"}[c.dense]; st.Lookup != want {
							t.Fatalf("%s: lookup %q, want %q", name, st.Lookup, want)
						}
						hl, _ := hashLookup(probe, build, key, key)
						hp, hb, err := e.probeJoin(k, residual, env, probe, build, hl, buildFirst, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(psel, hp) || !slices.Equal(bsel, hb) {
							t.Fatalf("%s: selection vectors differ\n dense  %v\n        %v\n hashed %v\n        %v", name, psel, bsel, hp, hb)
						}
					}
				}
			}
		}
	}
}

// TestDenseGroupByMatchesHashed: over every dense key column of the
// cases, the slot-per-key group ids are the hashed table's — same id
// per row, same first rows — and vecGroupBy emits its groups in that
// order with those counts.
func TestDenseGroupByMatchesHashed(t *testing.T) {
	e := &vecEngine{batch: 5, reg: obs.NewRegistry()}
	key := []int{0}
	for _, c := range denseCases() {
		for side, in := range []*batch.Rel{keyRel("p", c.probe, c.pnull), keyRel("b", c.build, c.bnull)} {
			lo, hi, ok := batch.DenseRange(in.Col(0))
			if !ok {
				continue
			}
			name := fmt.Sprintf("%s/side %d", c.name, side)
			dg, df, err := e.groupIDsDense(in.Col(0), lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			hg, hf, err := e.groupIDsHashed(in, key)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(dg, hg) || !slices.Equal(df, hf) {
				t.Fatalf("%s: group ids differ\n dense  %v %v\n hashed %v %v", name, dg, df, hg, hf)
			}
			gb := plan.NewGroupBy([]schema.Attribute{in.Schema.At(0)},
				[]algebra.Aggregate{{Func: algebra.CountStar, Out: schema.Attr("q", "n")}}, nil)
			out, err := e.vecGroupBy(groupShape(gb, in.Schema), gb.Aggs, in)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int64, len(hf))
			for _, g := range hg {
				counts[g]++
			}
			if out.N != len(hf) {
				t.Fatalf("%s: %d groups, want %d", name, out.N, len(hf))
			}
			for g, first := range hf {
				if !value.Equal(out.Col(0).At(g), in.Col(0).At(int(first))) || out.Col(1).Ints[g] != counts[g] {
					t.Fatalf("%s: group %d is %v×%d, want %v×%d", name, g, out.Col(0).At(g), out.Col(1).Ints[g], in.Col(0).At(int(first)), counts[g])
				}
			}
		}
	}
}
