package plan

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Annotation carries the measured (and optionally estimated)
// per-operator figures an instrumented execution attaches to a plan
// node: the substrate of EXPLAIN ANALYZE. Extra holds
// operator-specific counters (hash-build sizes, residual-predicate
// evaluations, null-padding counts, nested-loop fallbacks) keyed by
// stable snake_case names.
type Annotation struct {
	Rows    int              `json:"rows"`
	EstRows float64          `json:"estRows,omitempty"`
	Elapsed time.Duration    `json:"elapsedNs"`
	Extra   map[string]int64 `json:"extra,omitempty"`
}

// Annotations maps plan nodes (by identity — every node occurs once
// in a tree) to their measured figures.
type Annotations map[Node]*Annotation

// For returns the annotation for n, creating an empty one on first
// use.
func (a Annotations) For(n Node) *Annotation {
	an := a[n]
	if an == nil {
		an = &Annotation{}
		a[n] = an
	}
	return an
}

// AddExtra bumps an operator-specific counter on the annotation.
func (an *Annotation) AddExtra(key string, n int64) {
	if an.Extra == nil {
		an.Extra = make(map[string]int64)
	}
	an.Extra[key] += n
}

// annotationSuffix renders one node's annotation in the EXPLAIN
// ANALYZE style: (actual rows=N est=M time=D [k=v ...]).
func annotationSuffix(an *Annotation) string {
	if an == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  (actual rows=%d", an.Rows)
	if an.EstRows > 0 {
		fmt.Fprintf(&b, " est=%.0f", an.EstRows)
	}
	fmt.Fprintf(&b, " time=%s", an.Elapsed.Round(time.Microsecond))
	keys := make([]string, 0, len(an.Extra))
	for k := range an.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, an.Extra[k])
	}
	b.WriteString(")")
	return b.String()
}

// IndentAnnotated renders the plan as Indent does, with each
// operator line carrying its measured annotation — the textual
// EXPLAIN ANALYZE output.
func IndentAnnotated(n Node, ann Annotations) string {
	var b strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(label(n))
		b.WriteString(annotationSuffix(ann[n]))
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

// TreeNode is one operator of a plan's JSON view: its Label, its
// annotation when it has one, and its inputs.
type TreeNode struct {
	Op     string      `json:"op"`
	Actual *Annotation `json:"actual,omitempty"`
	Inputs []*TreeNode `json:"inputs,omitempty"`
}

// Tree builds the JSON view of the plan rooted at n, each operator
// carrying its annotation from ann (which may be nil).
func Tree(n Node, ann Annotations) *TreeNode {
	t := &TreeNode{Op: label(n), Actual: ann[n]}
	for _, c := range n.Children() {
		t.Inputs = append(t.Inputs, Tree(c, ann))
	}
	return t
}
