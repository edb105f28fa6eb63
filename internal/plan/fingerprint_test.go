package plan

import (
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/schema"
)

func fpQuery() Node {
	j := NewJoin(LeftJoin, expr.EqCols("r1", "x", "r2", "x"),
		NewScan("r1"),
		NewJoin(InnerJoin, expr.EqCols("r2", "y", "r3", "y"),
			NewScan("r2"), NewScan("r3")))
	gs := NewGenSel(expr.EqCols("r1", "y", "r3", "x"),
		[]PreservedSpec{NewPreserved("r1")}, j)
	return NewGroupBy(
		[]schema.Attribute{schema.Attr("r1", "x")}, nil,
		NewSelect(expr.EqCols("r1", "x", "r2", "x"), gs))
}

// TestKeyMatchesString pins the contract Key is built on: the cached
// key is byte-for-byte the canonical String rendering, for every
// operator kind.
func TestKeyMatchesString(t *testing.T) {
	q := fpQuery()
	Walk(q, func(n Node) {
		if Key(n) != n.String() {
			t.Errorf("Key(%T) = %q, String = %q", n, Key(n), n.String())
		}
	})
	srt := NewSort([]SortKey{{Attr: schema.Attr("r1", "x")}}, 3, NewScan("r1"))
	if Key(srt) != srt.String() {
		t.Errorf("Sort Key %q != String %q", Key(srt), srt.String())
	}
	mg := NewMGOJ(expr.EqCols("r1", "x", "r2", "x"),
		[]PreservedSpec{NewPreserved("r1")}, NewScan("r1"), NewScan("r2"))
	if Key(mg) != mg.String() {
		t.Errorf("MGOJ Key %q != String %q", Key(mg), mg.String())
	}
}

// TestFingerprintStable: same node, same fingerprint; equal trees
// built independently agree; distinct trees disagree.
func TestFingerprintStable(t *testing.T) {
	a, b := fpQuery(), fpQuery()
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("equal plans must share a fingerprint")
	}
	if Key(a) != Key(b) {
		t.Error("equal plans must share a key")
	}
	other := NewScan("r9")
	if Fingerprint(a) == Fingerprint(other) {
		t.Error("distinct plans should not collide on this input")
	}
	// Repeated calls hit the cache and return identical values.
	if Fingerprint(a) != Fingerprint(a) || Key(a) != Key(a) {
		t.Error("cached fingerprint must be stable")
	}
}

// TestWithChildrenFreshFingerprint: rewriting a node yields a fresh
// cache, so the new tree's key reflects the new child while the old
// tree's cached key is untouched.
func TestWithChildrenFreshFingerprint(t *testing.T) {
	j := NewJoin(InnerJoin, expr.EqCols("r1", "x", "r2", "x"),
		NewScan("r1"), NewScan("r2"))
	oldKey := Key(j)
	swapped := j.WithChildren([]Node{NewScan("r2"), NewScan("r1")})
	if Key(swapped) == oldKey {
		t.Error("rewritten join must have a different key")
	}
	if Key(j) != oldKey {
		t.Error("original key must be unchanged after WithChildren")
	}
}

// TestFingerprintConcurrent hammers one shared tree from many
// goroutines; run under -race this proves the lazy cache is sound for
// the parallel saturation workers that key shared subtrees
// concurrently.
func TestFingerprintConcurrent(t *testing.T) {
	q := fpQuery()
	want := Key(fpQuery()) // independently built twin, serial
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if Key(q) != want {
					t.Error("concurrent Key mismatch")
					return
				}
				_ = Fingerprint(q)
			}
		}()
	}
	wg.Wait()
}
