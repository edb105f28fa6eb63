package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Strict validating parser for the Prometheus text exposition format
// (version 0.0.4), stdlib only. It exists so the engine can check its
// own /metrics output — the exposition tests and the cmd/reorder
// -metrics-addr test scrape an endpoint and run every line through it. It is
// deliberately stricter than real scrapers: unknown sample names
// inside a family, non-cumulative histogram buckets, a missing +Inf
// bucket, duplicate series or a malformed escape all fail the parse.

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one metric family: a # TYPE line plus its samples.
type PromFamily struct {
	Name    string
	Type    string
	Help    string
	Samples []PromSample
}

// ParseExposition parses and validates a complete exposition. It
// returns the families keyed by name, or the first violation found.
func ParseExposition(r io.Reader) (map[string]*PromFamily, error) {
	families := make(map[string]*PromFamily)
	seen := make(map[string]bool) // duplicate-series detection
	var current *PromFamily
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, families, &current); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if current == nil {
			return nil, fmt.Errorf("line %d: sample %q before any # TYPE line", lineNo, s.Name)
		}
		if !sampleBelongs(current, s.Name) {
			return nil, fmt.Errorf("line %d: sample %q does not belong to family %q (type %s)",
				lineNo, s.Name, current.Name, current.Type)
		}
		serik := s.Name + "\xff" + canonicalLabels(s.Labels)
		if seen[serik] {
			return nil, fmt.Errorf("line %d: duplicate series %s%v", lineNo, s.Name, s.Labels)
		}
		seen[serik] = true
		current.Samples = append(current.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range families {
		if err := validateFamily(f); err != nil {
			return nil, err
		}
	}
	return families, nil
}

func parseComment(line string, families map[string]*PromFamily, current **PromFamily) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		// "# arbitrary comment" is legal and ignored.
		return nil
	}
	switch fields[1] {
	case "TYPE":
		name, typ := fields[2], ""
		if len(fields) == 4 {
			typ = fields[3]
		}
		if !validMetricName(name) {
			return fmt.Errorf("invalid metric name %q in TYPE line", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("invalid type %q for %q", typ, name)
		}
		if f := families[name]; f != nil && f.Type != "" {
			return fmt.Errorf("duplicate TYPE line for %q", name)
		}
		f := families[name]
		if f == nil {
			f = &PromFamily{Name: name}
			families[name] = f
		}
		f.Type = typ
		*current = f
	case "HELP":
		name := fields[2]
		if !validMetricName(name) {
			return fmt.Errorf("invalid metric name %q in HELP line", name)
		}
		f := families[name]
		if f == nil {
			f = &PromFamily{Name: name}
			families[name] = f
		}
		if len(fields) == 4 {
			f.Help = fields[3]
		}
	}
	return nil
}

func parseSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample line %q", line)
	}
	s.Name = rest[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		body, tail, err := splitLabelBody(rest[1:])
		if err != nil {
			return s, err
		}
		labels, err := parseLabels(body)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimLeft(rest, " ")
	// A timestamp after the value is legal in the format; we emit none,
	// and the strict parser rejects one.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := parsePromValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", rest, err)
	}
	s.Value = v
	return s, nil
}

// splitLabelBody scans an escaped label body up to its closing brace,
// returning the body and everything after the brace.
func splitLabelBody(rest string) (body, tail string, err error) {
	inQuote := false
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return rest[:i], rest[i+1:], nil
			}
		}
	}
	return "", "", fmt.Errorf("unterminated label body in %q", rest)
}

func parseLabels(body string) (map[string]string, error) {
	labels := map[string]string{}
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label pair missing '=' in %q", body)
		}
		name := body[:eq]
		if !validLabelName(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		if len(body) <= eq+1 || body[eq+1] != '"' {
			return nil, fmt.Errorf("label %q value not quoted", name)
		}
		value, rest, err := parseQuoted(body[eq+2:])
		if err != nil {
			return nil, fmt.Errorf("label %q: %w", name, err)
		}
		if _, dup := labels[name]; dup {
			return nil, fmt.Errorf("duplicate label %q", name)
		}
		labels[name] = value
		body = rest
		if len(body) > 0 {
			if body[0] != ',' {
				return nil, fmt.Errorf("expected ',' between label pairs, got %q", body)
			}
			body = body[1:]
		}
	}
	return labels, nil
}

// parseQuoted consumes an escaped label value up to its closing quote.
func parseQuoted(s string) (value, rest string, err error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", s[i+1])
			}
			i++
		case '"':
			return b.String(), s[i+1:], nil
		case '\n':
			return "", "", fmt.Errorf("raw newline in label value")
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// sampleBelongs reports whether a sample name is legal inside the
// family: the bare name for counters/gauges/untyped, the
// _bucket/_sum/_count expansions for histograms (and summaries'
// quantile/_sum/_count).
func sampleBelongs(f *PromFamily, name string) bool {
	switch f.Type {
	case "histogram":
		return name == f.Name+"_bucket" || name == f.Name+"_sum" || name == f.Name+"_count"
	case "summary":
		return name == f.Name || name == f.Name+"_sum" || name == f.Name+"_count"
	default:
		return name == f.Name
	}
}

// validateFamily applies the cross-sample rules: every family with a
// TYPE must have samples, and histogram buckets must be cumulative,
// le-ordered and closed by a +Inf bucket that equals _count.
func validateFamily(f *PromFamily) error {
	if f.Type == "" {
		return fmt.Errorf("family %q has samples or HELP but no TYPE line", f.Name)
	}
	if len(f.Samples) == 0 {
		return fmt.Errorf("family %q has a TYPE line but no samples", f.Name)
	}
	if f.Type != "histogram" {
		return nil
	}
	// Group bucket samples by their non-le label set.
	type series struct {
		les    []float64
		counts []float64
		count  float64
		hasCnt bool
	}
	groups := map[string]*series{}
	grp := func(labels map[string]string) *series {
		key := canonicalLabelsExcept(labels, "le")
		g := groups[key]
		if g == nil {
			g = &series{}
			groups[key] = g
		}
		return g
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("family %q: bucket sample without le label", f.Name)
			}
			v, err := parsePromValue(le)
			if err != nil {
				return fmt.Errorf("family %q: bad le %q", f.Name, le)
			}
			g := grp(s.Labels)
			g.les = append(g.les, v)
			g.counts = append(g.counts, s.Value)
		case f.Name + "_count":
			g := grp(s.Labels)
			g.count = s.Value
			g.hasCnt = true
		}
	}
	for key, g := range groups {
		if !g.hasCnt {
			return fmt.Errorf("family %q{%s}: buckets without a _count sample", f.Name, key)
		}
		if len(g.les) == 0 {
			return fmt.Errorf("family %q{%s}: histogram without buckets", f.Name, key)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("family %q{%s}: le values not increasing", f.Name, key)
			}
			if g.counts[i] < g.counts[i-1] {
				return fmt.Errorf("family %q{%s}: bucket counts not cumulative", f.Name, key)
			}
		}
		last := len(g.les) - 1
		if !math.IsInf(g.les[last], 1) {
			return fmt.Errorf("family %q{%s}: missing +Inf bucket", f.Name, key)
		}
		if g.counts[last] != g.count {
			return fmt.Errorf("family %q{%s}: +Inf bucket %v != count %v", f.Name, key, g.counts[last], g.count)
		}
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func canonicalLabels(labels map[string]string) string {
	return canonicalLabelsExcept(labels, "")
}

func canonicalLabelsExcept(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Quote(labels[k])
	}
	return strings.Join(parts, ",")
}
