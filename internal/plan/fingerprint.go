package plan

import (
	"strings"
	"sync/atomic"
)

// Plans are immutable and rewrites share unchanged subtrees, so the
// canonical string of a node never changes once built. Every node
// therefore carries a fingerprint cache: the canonical key plus a
// 64-bit hash, computed bottom-up at most once per node and reused by
// every parent that embeds the subtree. This is what makes saturation
// dedup and cost memoization cheap — a freshly rewritten plan shares
// all but its spine with existing plans, so its key is a handful of
// concatenations of already-cached child keys instead of a full
// re-serialization of the tree.

// fpVal is the computed fingerprint: the canonical plan string and its
// FNV-1a hash (used for sharding and as a compact memo key).
type fpVal struct {
	key  string
	hash uint64
}

// fpCache lazily caches a node's fingerprint. The zero value is ready
// to use; concurrent computation is benign because the key is a pure
// function of the (immutable) node, so whichever goroutine wins the
// CompareAndSwap stores the same value the losers computed.
//
// The same slot carries the node's relation set (see relset.go), the
// other per-node fact the enumerator asks for over and over, and the
// node's execution shape (see shape.go), the per-node facts the
// executor derives from its input schemas.
type fpCache struct {
	v     atomic.Pointer[fpVal]
	rels  atomic.Pointer[relsVal]
	shape shapeRef
}

// val returns the cached fingerprint, building it with build on first
// use.
func (c *fpCache) val(build func() string) *fpVal {
	if v := c.v.Load(); v != nil {
		return v
	}
	key := build()
	v := &fpVal{key: key, hash: fnv64(key)}
	if !c.v.CompareAndSwap(nil, v) {
		return c.v.Load()
	}
	return v
}

// fingerprinter is implemented by every node in this package; external
// Node implementations fall back to String().
type fingerprinter interface {
	fingerprint() *fpVal
}

// Key returns the canonical plan string of n — identical text to
// n.String(), but cached on the node so repeated keying of the same
// (sub)tree is O(1) after the first call. Equal keys mean equal plans;
// the saturation engine, the optimizer's cross-seed dedup and the cost
// memo all key by it.
func Key(n Node) string {
	if f, ok := n.(fingerprinter); ok {
		return f.fingerprint().key
	}
	return n.String()
}

// Fingerprint returns a 64-bit FNV-1a hash of Key(n), cached alongside
// it. Hashes are for sharding and compact indexing; correctness-
// critical dedup must compare the full Key (hash collisions, while
// unlikely, would silently merge distinct plans).
func Fingerprint(n Node) uint64 {
	if f, ok := n.(fingerprinter); ok {
		return f.fingerprint().hash
	}
	return fnv64(n.String())
}

// specsKey renders a preserved-spec list as "r1r2,r3" — identical to
// joining the specs' String()s with "," but without the intermediate
// slice; the single-spec case (the overwhelmingly common one during
// enumeration) is a straight join of the spec itself.
func specsKey(specs []PreservedSpec) string {
	if len(specs) == 1 {
		return strings.Join(specs[0], "")
	}
	var b strings.Builder
	for i, s := range specs {
		if i > 0 {
			b.WriteByte(',')
		}
		for _, rel := range s {
			b.WriteString(rel)
		}
	}
	return b.String()
}

// fnv64 is FNV-1a, inlined to keep the hot path free of hash.Hash64
// allocations.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
