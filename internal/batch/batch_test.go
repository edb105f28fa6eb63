package batch

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// randRel builds a relation exercising every physical column kind plus
// a mixed column, with ~12% NULLs sprinkled everywhere.
func randRel(t *testing.T, rows int, seed int64) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := relation.NewBuilder("t", "i", "f", "s", "b", "mix")
	for r := 0; r < rows; r++ {
		mk := func(v value.Value) value.Value {
			if rng.Intn(8) == 0 {
				return value.Null
			}
			return v
		}
		var mixed value.Value
		switch rng.Intn(3) {
		case 0:
			mixed = value.NewInt(rng.Int63n(50))
		case 1:
			mixed = value.NewString("m")
		default:
			mixed = value.NewFloat(rng.Float64())
		}
		b.Row(
			mk(value.NewInt(rng.Int63n(100))),
			mk(value.NewFloat(rng.NormFloat64())),
			mk(value.NewString(string(rune('a'+rng.Intn(26))))),
			mk(value.NewBool(rng.Intn(2) == 0)),
			mk(mixed),
		)
	}
	return b.Relation()
}

func TestBatchRoundTrip(t *testing.T) {
	in := randRel(t, 300, 1)
	col := FromRelation(in)
	if col.N != in.Len() {
		t.Fatalf("N = %d, want %d", col.N, in.Len())
	}
	// Monomorphic columns get typed representations; the mixed column
	// degrades to PhysAny. Column order: i f s b mix #rid.
	want := []Phys{PhysInt, PhysFloat, PhysStr, PhysBool, PhysAny, PhysInt}
	for c, p := range want {
		if col.Col(c).Phys != p {
			t.Errorf("col %d phys = %s, want %s", c, col.Col(c).Phys, p)
		}
	}
	if col.ToRelation() != in {
		t.Fatal("an unmodified shaped relation must hand back its source")
	}
	// A derived Rel has no source to hand back: this is the boxing path.
	all := make([]int32, col.N)
	for i := range all {
		all[i] = int32(i)
	}
	out := col.Select(all).ToRelation()
	if out == in {
		t.Fatal("a derived Rel returned the source relation")
	}
	if !in.EqualAsMultisets(out) {
		t.Fatal("round trip is not multiset-identical")
	}
	// Exact value identity row by row, not just multiset equality.
	for i, tup := range in.Tuples() {
		if !tup.EqualTuple(out.Tuple(i)) {
			t.Fatalf("row %d changed: %v vs %v", i, tup, out.Tuple(i))
		}
		if !tup.EqualTuple(col.Tuple(i)) {
			t.Fatalf("Tuple(%d) changed", i)
		}
	}
}

func TestBatchKeyHashesMatchTupleHashOn(t *testing.T) {
	in := randRel(t, 200, 2)
	col := FromRelation(in)
	idx := []int{0, 2, 4} // int, string, mixed — includes NULLs
	hs, ok := col.KeyHashes(idx, false)
	for i, tup := range in.Tuples() {
		th, tok := tup.HashOn(idx)
		if ok[i] != tok {
			t.Fatalf("row %d: ok=%v, tuple ok=%v", i, ok[i], tok)
		}
		if tok && hs[i] != th {
			t.Fatalf("row %d: hash %x, tuple hash %x", i, hs[i], th)
		}
	}
	// Grouping form: NULL participates; hash must match the boxed
	// HashCombine chain with HashNull for NULL slots.
	ghs, gok := col.KeyHashes(idx, true)
	if gok != nil {
		t.Fatal("grouping keys qualify every row: ok must be nil")
	}
	for i, tup := range in.Tuples() {
		h := value.HashSeed
		for _, c := range idx {
			h = value.HashCombine(h, tup[c].Hash64())
		}
		if ghs[i] != h {
			t.Fatalf("row %d: grouping hash %x, want %x", i, ghs[i], h)
		}
	}
}

func TestBatchGatherPadsNulls(t *testing.T) {
	in := randRel(t, 50, 3)
	col := FromRelation(in)
	sel := []int32{4, -1, 0, 49, -1}
	for c := 0; c < col.Width(); c++ {
		g := col.Col(c).Gather(sel)
		for i, s := range sel {
			var want value.Value
			if s >= 0 {
				want = col.Col(c).At(int(s))
			} else {
				want = value.Null
			}
			if !value.Equal(g.At(i), want) {
				t.Fatalf("col %d row %d: got %v, want %v", c, i, g.At(i), want)
			}
		}
	}
}

func TestBatchEqualRows(t *testing.T) {
	// INT and FLOAT columns holding the same numeric value must compare
	// equal across physical kinds, exactly as value.Equal merges them.
	iv := Vec{Phys: PhysInt, Ints: []int64{3, 7}}
	fv := Vec{Phys: PhysFloat, Floats: []float64{3, 8}}
	if !iv.EqualRows(0, &fv, 0) {
		t.Fatal("INT 3 != FLOAT 3.0 across physical kinds")
	}
	if iv.EqualRows(1, &fv, 1) {
		t.Fatal("7 == 8?")
	}
	nv := Vec{Phys: PhysInt, Ints: []int64{0, 5}}
	nv.SetNull(0, 2)
	if !nv.IsNull(0) || nv.IsNull(1) {
		t.Fatal("null bitmap wrong")
	}
	if nv.EqualRows(0, &iv, 0) {
		t.Fatal("NULL == 3?")
	}
	nv2 := Vec{Phys: PhysStr, Strs: []string{""}}
	nv2.SetNull(0, 1)
	if !nv.EqualRows(0, &nv2, 0) {
		t.Fatal("NULL must be identical to NULL for grouping equality")
	}
}

func TestBatchGather2PadsSides(t *testing.T) {
	l := FromRelation(relation.NewBuilder("l", "x").
		Row(value.NewInt(1)).Row(value.NewInt(2)).Relation())
	r := FromRelation(relation.NewBuilder("r", "y").
		Row(value.NewString("a")).Relation())
	s := l.Schema.Concat(r.Schema)
	out := Gather2(s, l, []int32{0, 1, -1}, r, []int32{0, -1, 0})
	if out.N != 3 {
		t.Fatalf("N = %d", out.N)
	}
	rel := out.ToRelation()
	// Row 1: left row 1 padded on the right; row 2: right row 0 padded
	// on the left.
	if !rel.Tuple(1)[2].IsNull() || !rel.Tuple(2)[0].IsNull() {
		t.Fatalf("padding missing: %v", rel.Tuples())
	}
	if rel.Tuple(0)[0].Int() != 1 || rel.Tuple(0)[2].Str() != "a" {
		t.Fatalf("inner row wrong: %v", rel.Tuple(0))
	}
}

// sameRel reports whether two columnar relations hold the same schema,
// physical column kinds and values, row by row.
func sameRel(a, b *Rel) bool {
	if a.N != b.N || a.Width() != b.Width() || a.Schema.String() != b.Schema.String() {
		return false
	}
	for c := 0; c < a.Width(); c++ {
		if a.Col(c).Phys != b.Col(c).Phys {
			return false
		}
		for i := 0; i < a.N; i++ {
			if !value.Equal(a.Col(c).At(i), b.Col(c).At(i)) {
				return false
			}
		}
	}
	return true
}

// TestBatchImageSharedAndInvalidated: Of shapes a relation once, hands
// every caller the same read-only image, and re-shapes after Append.
func TestBatchImageSharedAndInvalidated(t *testing.T) {
	in := randRel(t, 120, 4)
	builds := obs.Default().Counter("exec.image.builds")
	before := builds.Value()
	img := Of(in)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if Of(in) != img {
				t.Error("concurrent Of returned a different image")
			}
		}()
	}
	wg.Wait()
	if got := builds.Value() - before; got != 1 {
		t.Fatalf("image built %d times, want 1", got)
	}
	if !sameRel(img, FromRelation(in)) {
		t.Fatal("cached image differs from a fresh FromRelation")
	}
	if img.ToRelation() != in {
		t.Fatal("base image must hand back its relation")
	}

	in.Append(in.Tuple(0).Clone())
	again := Of(in)
	if again == img || again.N != in.Len() {
		t.Fatalf("Append did not invalidate the image (N=%d, rows=%d)", again.N, in.Len())
	}
	if !sameRel(again, FromRelation(in)) {
		t.Fatal("re-shaped image differs from a fresh FromRelation")
	}
}

// TestBatchImageAlias: an aliased view shares the image's column
// vectors and boxes back to the same tuples under the renamed schema.
func TestBatchImageAlias(t *testing.T) {
	in := randRel(t, 40, 5)
	img := Of(in)
	attrs := in.Schema().Attrs()
	for i := range attrs {
		attrs[i].Rel = "u"
	}
	renamed := schema.New(attrs...)
	view := img.As(renamed)
	if view.Schema != renamed || view.N != img.N {
		t.Fatal("alias view has the wrong schema or length")
	}
	for c := 0; c < view.Width(); c++ {
		if view.Col(c).Phys == PhysInt && &view.Col(c).Ints[0] != &img.Col(c).Ints[0] {
			t.Fatalf("col %d was copied, not shared", c)
		}
	}
	out := view.ToRelation()
	if out.Schema() != renamed || out.Len() != in.Len() {
		t.Fatal("alias view boxed to the wrong relation")
	}
	for i, tup := range in.Tuples() {
		if &out.Tuple(i)[0] != &tup[0] {
			t.Fatalf("row %d was re-boxed, not shared", i)
		}
	}
	if Of(in) != img {
		t.Fatal("aliasing disturbed the cached image")
	}
}

// TestBatchPendingColumnsCompose: Select and Gather2 over derived
// relations compose selection vectors instead of gathering — stacked
// three deep, -1 padding carried through — and reading one column
// gathers that column only.
func TestBatchPendingColumnsCompose(t *testing.T) {
	in := randRel(t, 60, 6)
	img := FromRelation(in)
	attrs := in.Schema().Attrs()
	for i := range attrs {
		attrs[i].Rel = "u"
	}
	right := img.As(schema.New(attrs...))
	a := img.Select([]int32{5, 7, 9, 11, 13})
	b := Gather2(a.Schema.Concat(right.Schema), a, []int32{4, -1, 0, 2}, right, []int32{1, 3, -1, 3})
	c := b.Select([]int32{3, 1, 2})
	want := [][2]int{{9, 3}, {-1, 3}, {5, -1}} // (row of in on the left, on the right)
	w := img.Width()
	for k, rows := range want {
		got := c.Tuple(k)
		for side, row := range rows {
			for col := 0; col < w; col++ {
				v := got[side*w+col]
				if row < 0 {
					if !v.IsNull() {
						t.Fatalf("row %d side %d col %d: padding lost: %v", k, side, col, v)
					}
				} else if !value.Equal(v, in.Tuple(row)[col]) {
					t.Fatalf("row %d side %d col %d: %v, want %v", k, side, col, v, in.Tuple(row)[col])
				}
			}
		}
	}

	d := b.Select([]int32{0, 2})
	if d.Col(1).Len() != 2 {
		t.Fatal("gathered column has the wrong length")
	}
	for col := 0; col < d.Width(); col++ {
		if pending := d.pend[col].src != nil; pending != (col != 1) {
			t.Fatalf("col %d pending=%v after reading column 1 only", col, pending)
		}
	}
	if img.pend != nil || a.pend[0].src != &img.cols[0] {
		t.Fatal("views must name the gathered source column, never another view")
	}
}

// TestBatchJoinIndex: a shared image builds the index for a key set
// once however many joins race for it, aliases share it, each chain
// lists its rows in ascending order, and a Rel that is not an image
// computes a private one.
func TestBatchJoinIndex(t *testing.T) {
	in := randRel(t, 200, 7)
	img := Of(in)
	builds := obs.Default().Counter("exec.index.builds")
	before := builds.Value()
	keys := []int{0, 2}
	first, shared := img.JoinIndex(keys, false) // a probe: hashes only
	if !shared || first.Head != nil || builds.Value() != before {
		t.Fatal("probing an image must cache its key hashes without building the table")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ix, shared := img.As(img.Schema).JoinIndex(keys, true); ix != first || !shared {
				t.Error("concurrent JoinIndex returned a different index")
			}
		}()
	}
	wg.Wait()
	if got := builds.Value() - before; got != 1 {
		t.Fatalf("index built %d times, want 1", got)
	}
	if other, _ := img.JoinIndex([]int{1}, true); other == first || builds.Value()-before != 2 {
		t.Fatal("another key set must get an index of its own")
	}

	hs, ok := img.KeyHashes(keys, false)
	rows := 0
	for s := range first.Head {
		last := int32(-1)
		for j := first.Head[s]; j >= 0; j = first.Next[j] {
			if j <= last || !ok[j] || hs[j]&first.Mask != uint64(s) {
				t.Fatalf("slot %d: row %d after %d (ok=%v)", s, j, last, ok[j])
			}
			last = j
			rows++
		}
	}
	if rows != first.Rows || rows == 0 || rows == img.N {
		t.Fatalf("chained %d rows, index says %d of %d (NULL keys stay out)", rows, first.Rows, img.N)
	}

	own, shared := FromRelation(in).JoinIndex(keys, true)
	if shared || own == first || own.Rows != first.Rows {
		t.Fatal("a non-image Rel must build a private, equal index")
	}
	in.Append(in.Tuple(0).Clone())
	if again, _ := Of(in).JoinIndex(keys, true); again == first || len(again.Hashes) != in.Len() {
		t.Fatal("Append must drop the index with the image")
	}
}
