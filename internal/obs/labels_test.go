package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestLabelsEncode(t *testing.T) {
	cases := []struct {
		base   string
		names  []string
		values []string
		want   string
	}{
		{"executor.qerror_milli", []string{"op"}, []string{"join.inner"},
			`executor.qerror_milli{op="join.inner"}`},
		// Pairs sort by label name regardless of declaration order.
		{"m", []string{"z", "a"}, []string{"1", "2"}, `m{a="2",z="1"}`},
		// Values escape backslash, quote and newline.
		{"m", []string{"k"}, []string{`a"b\c` + "\n"}, `m{k="a\"b\\c\n"}`},
		{"m", nil, nil, "m"},
	}
	for _, c := range cases {
		got := encodeLabels(c.base, c.names, c.values)
		if got != c.want {
			t.Errorf("EncodeLabels(%q,%v,%v) = %q, want %q", c.base, c.names, c.values, got, c.want)
		}
	}
}

func TestLabelsSplit(t *testing.T) {
	base, labels := splitLabels(`m{a="1"}`)
	if base != "m" || labels != `a="1"` {
		t.Fatalf("SplitLabels = %q, %q", base, labels)
	}
	base, labels = splitLabels("plain.name")
	if base != "plain.name" || labels != "" {
		t.Fatalf("SplitLabels(plain) = %q, %q", base, labels)
	}
	// A brace without the closing suffix is not a label body.
	base, labels = splitLabels("odd{name")
	if base != "odd{name" || labels != "" {
		t.Fatalf("SplitLabels(odd) = %q, %q", base, labels)
	}
}

func TestCounterVecChildrenLandInRegistry(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("executor.op_count", "op")
	v.With("scan").Add(3)
	v.With("join.inner").Inc()
	v.With("scan").Inc()

	s := r.Snapshot()
	if got := s.Counters[`executor.op_count{op="scan"}`]; got != 4 {
		t.Fatalf("scan child = %d, want 4", got)
	}
	if got := s.Counters[`executor.op_count{op="join.inner"}`]; got != 1 {
		t.Fatalf("join child = %d, want 1", got)
	}
	// A second vector handle for the same family shares children.
	v2 := r.CounterVec("executor.op_count", "op")
	v2.With("scan").Inc()
	if got := r.Snapshot().Counters[`executor.op_count{op="scan"}`]; got != 5 {
		t.Fatalf("shared child = %d, want 5", got)
	}
}

func TestHistogramVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("qerr", "op")
	v.With("scan").Observe(1000)
	v.With("scan").Observe(2000)
	v.With("mgoj").Observe(8000)

	s := r.Snapshot()
	h, ok := s.Histograms[`qerr{op="scan"}`]
	if !ok || h.Count != 2 || h.Sum != 3000 {
		t.Fatalf("scan histogram = %+v, ok=%v", h, ok)
	}
	if h, ok := s.Histograms[`qerr{op="mgoj"}`]; !ok || h.Count != 1 {
		t.Fatalf("mgoj histogram = %+v, ok=%v", h, ok)
	}
}

func TestVecWithPanicsOnArityMismatch(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("m", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label value count mismatch")
		}
	}()
	v.With("only-one")
}

func TestVecSanitizesLabelNames(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m", "op-type").With("x").Inc()
	if got := r.Snapshot().Counters[`m{op_type="x"}`]; got != 1 {
		t.Fatalf("sanitized label child missing; counters = %v", r.Snapshot().Counters)
	}
}

func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c", "w")
	h := r.HistogramVec("h", "w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w%4)
			for i := 0; i < 1000; i++ {
				v.With(label).Inc()
				h.With(label).Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for name, n := range r.Snapshot().Counters {
		if strings.HasPrefix(name, "c{") {
			total += n
		}
	}
	if total != 8000 {
		t.Fatalf("counter total = %d, want 8000", total)
	}
}
