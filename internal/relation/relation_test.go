package relation

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/value"
)

func sample() *Relation {
	return NewBuilder("r", "a", "b").
		Row(value.NewInt(1), value.NewInt(10)).
		Row(value.NewInt(1), value.NewInt(10)).
		Row(value.NewInt(2), value.Null).
		Relation()
}

func TestBuilderAssignsRIDs(t *testing.T) {
	r := sample()
	rid := schema.RID("r")
	seen := map[int64]bool{}
	for _, tu := range r.Tuples() {
		id := r.Value(tu, rid).Int()
		if seen[id] {
			t.Fatalf("duplicate rid %d", id)
		}
		seen[id] = true
	}
}

func TestBuilderArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong arity must panic")
		}
	}()
	NewBuilder("r", "a").Row(value.NewInt(1), value.NewInt(2))
}

func TestAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong arity must panic")
		}
	}()
	sample().Append(Tuple{value.NewInt(1)})
}

func TestProjectDistinct(t *testing.T) {
	r := sample()
	a := schema.Attr("r", "a")
	dup := r.Project([]schema.Attribute{a}, false)
	if dup.Len() != 3 {
		t.Errorf("non-distinct projection lost rows: %d", dup.Len())
	}
	dis := r.Project([]schema.Attribute{a}, true)
	if dis.Len() != 2 {
		t.Errorf("distinct projection = %d rows, want 2", dis.Len())
	}
}

func TestMinus(t *testing.T) {
	r := sample()
	a := []schema.Attribute{schema.Attr("r", "a")}
	all := r.Project(a, true)
	none := all.Minus(all)
	if none.Len() != 0 {
		t.Errorf("x - x must be empty, got %d", none.Len())
	}
	empty := New(schema.New(a...))
	if got := all.Minus(empty); got.Len() != all.Len() {
		t.Errorf("x - empty must be x")
	}
	// NULLs are identical for Minus.
	withNull := New(schema.New(schema.Attr("r", "b")))
	withNull.Append(Tuple{value.Null})
	if got := withNull.Minus(withNull); got.Len() != 0 {
		t.Error("NULL rows must cancel in Minus")
	}
}

func TestOuterUnionPadsNulls(t *testing.T) {
	r1 := NewBuilder("r1", "a").Row(value.NewInt(1)).Relation()
	r2 := NewBuilder("r2", "b").Row(value.NewInt(2)).Relation()
	u := r1.OuterUnion(r2)
	if u.Len() != 2 || u.Schema().Len() != 4 {
		t.Fatalf("outer union shape: %d rows, schema %s", u.Len(), u.Schema())
	}
	if !u.Value(u.Tuple(0), schema.Attr("r2", "b")).IsNull() {
		t.Error("r1 row must be padded on r2 attributes")
	}
	if !u.Value(u.Tuple(1), schema.Attr("r1", "a")).IsNull() {
		t.Error("r2 row must be padded on r1 attributes")
	}
}

func TestReorderRoundTrip(t *testing.T) {
	r := sample()
	attrs := r.Schema().Attrs()
	rev := make([]schema.Attribute, len(attrs))
	for i := range attrs {
		rev[i] = attrs[len(attrs)-1-i]
	}
	back := r.Reorder(schema.New(rev...)).Reorder(r.Schema())
	if !back.EqualAsMultisets(r) {
		t.Error("reorder round trip changed contents")
	}
}

func TestEqualAsSetsIgnoresOrderAndDuplicates(t *testing.T) {
	r := sample()
	shuffled := New(r.Schema())
	shuffled.Append(r.Tuple(2))
	shuffled.Append(r.Tuple(0))
	shuffled.Append(r.Tuple(1))
	shuffled.Append(r.Tuple(0)) // duplicate collapses under set semantics
	if !r.EqualAsSets(shuffled) {
		t.Error("set equality must ignore order and duplicates")
	}
	if r.EqualAsMultisets(shuffled) {
		t.Error("multiset equality must notice the extra duplicate")
	}
}

func TestEqualDifferentSchemas(t *testing.T) {
	r1 := NewBuilder("r1", "a").Row(value.NewInt(1)).Relation()
	r2 := NewBuilder("r2", "a").Row(value.NewInt(1)).Relation()
	if r1.EqualAsSets(r2) {
		t.Error("different attribute sets are never equal")
	}
}

func TestFormatHidesVirtual(t *testing.T) {
	r := sample()
	withOut := r.Format(false)
	if strings.Contains(withOut, "#rid") {
		t.Error("Format(false) must hide row ids")
	}
	withRid := r.Format(true)
	if !strings.Contains(withRid, "#rid") {
		t.Error("Format(true) must show row ids")
	}
	if !strings.Contains(withOut, "-") {
		t.Error("NULL renders as dash, matching the paper's tables")
	}
}

func TestSortForDisplayDeterministic(t *testing.T) {
	mk := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("r", "a")
		vals := []int64{3, 1, 2, 1}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		for _, v := range vals {
			b.Row(value.NewInt(v))
		}
		r := b.Relation()
		// Strip rids so ordering depends on data only.
		p := r.Project([]schema.Attribute{schema.Attr("r", "a")}, false)
		p.SortForDisplay()
		return p.String()
	}
	if mk(1) != mk(2) {
		t.Error("display order must not depend on insertion order")
	}
}

// TestPadToProperty: padding to a superset schema preserves the
// original columns and NULL-fills the rest.
func TestPadToProperty(t *testing.T) {
	f := func(vals []int8) bool {
		b := NewBuilder("r", "a")
		for _, v := range vals {
			b.Row(value.NewInt(int64(v)))
		}
		r := b.Relation()
		super := r.Schema().Concat(schema.Base("s", "x"))
		padded := r.PadTo(super)
		if padded.Len() != r.Len() {
			return false
		}
		for i, tu := range padded.Tuples() {
			if !padded.Value(tu, schema.Attr("s", "x")).IsNull() {
				return false
			}
			if !value.Equal(padded.Value(tu, schema.Attr("r", "a")), r.Value(r.Tuple(i), schema.Attr("r", "a"))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTupleKeyDistinguishesBoundaries(t *testing.T) {
	// ("ab", "c") must differ from ("a", "bc").
	t1 := Tuple{value.NewString("ab"), value.NewString("c")}
	t2 := Tuple{value.NewString("a"), value.NewString("bc")}
	if t1.Key() == t2.Key() {
		t.Error("tuple keys must respect value boundaries")
	}
}

// TestTupleHash64MatchesKey: the hash identity agrees with the string
// Key identity (both mirror pointwise value.Equal) on a spread of
// tuples, and EqualTuple agrees with Key equality.
func TestTupleHash64MatchesKey(t *testing.T) {
	tuples := []Tuple{
		{},
		{value.Null},
		{value.Null, value.Null},
		{value.NewInt(1)},
		{value.NewFloat(1)},
		{value.NewInt(1), value.NewInt(2)},
		{value.NewInt(2), value.NewInt(1)},
		{value.NewString("ab"), value.NewString("c")},
		{value.NewString("a"), value.NewString("bc")},
		{value.NewBool(true)},
		{value.NewBool(false)},
	}
	for i, a := range tuples {
		for j, b := range tuples {
			keyEq := a.Key() == b.Key() && len(a) == len(b)
			if a.EqualTuple(b) != keyEq {
				t.Errorf("EqualTuple(%d,%d)=%v, Key equality %v", i, j, a.EqualTuple(b), keyEq)
			}
			if keyEq && a.Hash64() != b.Hash64() {
				t.Errorf("tuples %d,%d equal but hashes differ", i, j)
			}
		}
	}
}

// TestHashOnNullKeys: HashOn refuses NULL keys (null in-tolerant
// join semantics) while Hash64 over whole tuples accepts them.
func TestHashOnNullKeys(t *testing.T) {
	tu := Tuple{value.NewInt(1), value.Null}
	if _, ok := tu.HashOn([]int{0}); !ok {
		t.Error("non-NULL key column must hash")
	}
	if _, ok := tu.HashOn([]int{0, 1}); ok {
		t.Error("NULL key column must not hash")
	}
	_ = tu.Hash64() // whole-tuple identity hash must tolerate NULLs
}

// TestSetOpsUnderForcedCollisions drives distinct projection, Minus
// and the multiset comparators through tuples that collide in Hash64
// (distinct ints sharing a float64 image) and checks the collision
// verification keeps them apart.
func TestSetOpsUnderForcedCollisions(t *testing.T) {
	const big = int64(1) << 53
	a := value.NewInt(big)
	b := value.NewInt(big + 1)
	if (Tuple{a}).Hash64() != (Tuple{b}).Hash64() {
		t.Fatal("test premise: tuples must collide")
	}
	r := New(schema.Base("r", "x"))
	r.Append(Tuple{a, value.NewInt(0)})
	r.Append(Tuple{b, value.NewInt(1)})
	r.Append(Tuple{a, value.NewInt(2)})
	x := []schema.Attribute{schema.Attr("r", "x")}
	if got := r.Project(x, true).Len(); got != 2 {
		t.Errorf("distinct over colliding values = %d rows, want 2", got)
	}
	other := New(schema.New(schema.Attr("r", "x")))
	other.Append(Tuple{a})
	proj := r.Project(x, false)
	if got := proj.Minus(other).Len(); got != 1 {
		t.Errorf("minus under collision = %d rows, want 1", got)
	}
	one := New(schema.New(schema.Attr("r", "x")))
	one.Append(Tuple{a})
	two := New(schema.New(schema.Attr("r", "x")))
	two.Append(Tuple{b})
	if one.EqualAsSets(two) || one.EqualAsMultisets(two) {
		t.Error("colliding but unequal tuples must not compare equal")
	}
}

// TestImageBuiltOnceAndDropped: the derived-image slot runs its build
// once however many goroutines ask, and Append/AppendAll empty it.
func TestImageBuiltOnceAndDropped(t *testing.T) {
	r := NewBuilder("r", "x").Row(value.NewInt(1)).Row(value.NewInt(2)).Relation()
	var builds atomic.Int64
	build := func(r *Relation) any {
		builds.Add(1)
		return r.Len()
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := r.Image(build).(int); got != 2 {
				t.Errorf("image = %d, want 2", got)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1", builds.Load())
	}
	r.Append(Tuple{value.NewInt(3), value.NewInt(2)})
	if got := r.Image(build).(int); got != 3 || builds.Load() != 2 {
		t.Fatalf("after Append: image %d after %d builds, want 3 after 2", got, builds.Load())
	}
	r.AppendAll([]Tuple{{value.NewInt(4), value.NewInt(3)}})
	if got := r.Image(build).(int); got != 4 || builds.Load() != 3 {
		t.Fatalf("after AppendAll: image %d after %d builds, want 4 after 3", got, builds.Load())
	}
}
