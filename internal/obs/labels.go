package obs

import (
	"sort"
	"strings"
	"sync"
)

// Labeled metric vectors. A vector is a family of metrics sharing one
// base name and a small, fixed set of label names; each distinct label
// value combination resolves to its own child metric, stored in the
// registry under the canonical encoded name
//
//	base{k1="v1",k2="v2"}
//
// with the pairs sorted by label name and values escaped. Because the
// children live in the registry's ordinary maps under their encoded
// names, every existing consumer — Snapshot, Diff, Merge, String and
// the Prometheus writer — handles labeled metrics with no special
// cases, and two vectors built for the same (name, labels) resolve to
// the same children.
//
// Vectors are for small label sets (operator types, phases, engines):
// every combination stays resident for the life of the registry, which
// is the exposition contract — a counter that stops moving still
// scrapes.

// CounterVec is a family of counters over a fixed label set. Obtain
// one from Registry.CounterVec; the zero value is not usable.
type CounterVec struct {
	r     *Registry
	base  string
	names []string // sanitized, in declaration order

	mu       sync.RWMutex
	children map[string]*Counter
}

// HistogramVec is a family of histograms over a fixed label set.
// Obtain one from Registry.HistogramVec.
type HistogramVec struct {
	r     *Registry
	base  string
	names []string

	mu       sync.RWMutex
	children map[string]*Histogram
}

// CounterVec returns a counter family with the given label names.
// Label names are sanitized to the exposition charset
// ([a-zA-Z_][a-zA-Z0-9_]*). Safe to call on a nil registry (falls
// back to Default). Hold the vector: each call allocates a fresh
// handle (the children are shared through the registry regardless).
func (r *Registry) CounterVec(name string, labelNames ...string) *CounterVec {
	if r == nil {
		r = defaultRegistry
	}
	return &CounterVec{r: r, base: name, names: sanitizeLabelNames(labelNames)}
}

// HistogramVec returns a histogram family with the given label names.
func (r *Registry) HistogramVec(name string, labelNames ...string) *HistogramVec {
	if r == nil {
		r = defaultRegistry
	}
	return &HistogramVec{r: r, base: name, names: sanitizeLabelNames(labelNames)}
}

// With returns the child counter for the given label values, in the
// label-name order the vector was declared with. It panics on a
// value-count mismatch — that is a programming error, not data.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.names) {
		panic("obs: CounterVec " + v.base + ": label value count mismatch")
	}
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	c = v.r.Counter(encodeLabels(v.base, v.names, values))
	v.mu.Lock()
	if v.children == nil {
		v.children = make(map[string]*Counter)
	}
	v.children[key] = c
	v.mu.Unlock()
	return c
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.names) {
		panic("obs: HistogramVec " + v.base + ": label value count mismatch")
	}
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	h := v.children[key]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	h = v.r.Histogram(encodeLabels(v.base, v.names, values))
	v.mu.Lock()
	if v.children == nil {
		v.children = make(map[string]*Histogram)
	}
	v.children[key] = h
	v.mu.Unlock()
	return h
}

// encodeLabels builds the canonical registry name of a labeled metric:
// base{k1="v1",k2="v2"}, pairs sorted by label name, values escaped
// per the exposition format. With no labels it returns base unchanged.
func encodeLabels(base string, names, values []string) string {
	if len(names) == 0 {
		return base
	}
	type pair struct{ k, v string }
	pairs := make([]pair, len(names))
	for i := range names {
		pairs[i] = pair{names[i], values[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// splitLabels inverts encodeLabels far enough for renderers: it
// returns the base name and the raw (already escaped) label body, or
// ("", "") body when the name carries no labels.
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// sanitizeLabelNames maps arbitrary label names onto the exposition
// charset [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabelNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = sanitizeLabelName(n)
	}
	return out
}

func sanitizeLabelName(n string) string {
	if n == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range n {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}
