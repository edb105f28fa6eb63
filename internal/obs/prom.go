package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), written with the
// standard library only. The registry's free-form dotted names map
// onto the exposition charset by sanitization (every byte outside
// [a-zA-Z0-9_:] becomes '_'), counters follow the _total naming
// convention, and histograms expand into the cumulative
// _bucket{le=…}/_sum/_count series the power-of-two buckets already
// hold. Labeled metrics (CounterVec/HistogramVec children) carry their
// canonical label body straight into the sample line — encodeLabels
// already escaped the values exposition-style.

// writeProm renders the snapshot in the Prometheus text format.
// Output is deterministic: families sorted by exposition name,
// samples sorted by the registry name that produced them.
func (s Snapshot) writeProm(w io.Writer) error {
	type sample struct {
		suffix string // "", "_total", "_bucket", "_sum", "_count"
		labels string // raw label body without braces, "" for none
		value  string
	}
	type family struct {
		name    string
		typ     string
		samples []sample
	}
	families := make(map[string]*family)
	var order []string
	add := func(name, typ string, mk func(labels string) []sample) error {
		base, labels := splitLabels(name)
		fam := promName(base)
		if typ == "counter" {
			fam += "_total"
		}
		f := families[fam]
		if f == nil {
			f = &family{name: fam, typ: typ}
			families[fam] = f
			order = append(order, fam)
		} else if f.typ != typ {
			return fmt.Errorf("obs: exposition name collision: %q emitted as both %s and %s", fam, f.typ, typ)
		}
		f.samples = append(f.samples, mk(labels)...)
		return nil
	}

	var err error
	for _, name := range sortedKeys(s.Counters) {
		v := s.Counters[name]
		err = add(name, "counter", func(labels string) []sample {
			return []sample{{labels: labels, value: fmt.Sprintf("%d", v)}}
		})
		if err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		v := s.Gauges[name]
		err = add(name, "gauge", func(labels string) []sample {
			return []sample{{labels: labels, value: fmt.Sprintf("%d", v)}}
		})
		if err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		err = add(name, "histogram", func(labels string) []sample {
			var out []sample
			var cum int64
			for _, b := range h.Buckets {
				cum += b.N
				out = append(out, sample{
					suffix: "_bucket",
					labels: spliceLe(labels, fmt.Sprintf("%d", b.Le)),
					value:  fmt.Sprintf("%d", cum),
				})
			}
			// A scrape racing an Observe/Merge can catch the buckets a
			// step ahead of the count it snapshotted; clamp so the series
			// stays cumulative and +Inf == _count, which the strict
			// parser (and Prometheus itself) requires.
			total := h.Count
			if cum > total {
				total = cum
			}
			out = append(out,
				sample{suffix: "_bucket", labels: spliceLe(labels, "+Inf"), value: fmt.Sprintf("%d", total)},
				sample{suffix: "_sum", labels: labels, value: fmt.Sprintf("%d", h.Sum)},
				sample{suffix: "_count", labels: labels, value: fmt.Sprintf("%d", total)},
			)
			return out
		})
		if err != nil {
			return err
		}
	}

	sort.Strings(order)
	for _, fam := range order {
		f := families[fam]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, sm := range f.samples {
			line := f.name + sm.suffix
			if sm.labels != "" {
				line += "{" + sm.labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", line, sm.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeProm renders a point-in-time snapshot of the registry in the
// Prometheus text format; the /metrics handler serves it.
func (r *Registry) writeProm(w io.Writer) error { return r.Snapshot().writeProm(w) }

// spliceLe appends the le label to a (possibly empty) label body.
func spliceLe(labels, le string) string {
	if labels == "" {
		return `le="` + le + `"`
	}
	return labels + `,le="` + le + `"`
}

// promName maps a registry name onto the exposition metric-name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*: invalid bytes become '_', and a
// leading digit is prefixed.
func promName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
