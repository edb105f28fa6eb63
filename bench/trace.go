package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is the index of the enclosing span or -1;
// spans of one request share Req.
type span struct {
	Name   string
	Req    int
	Parent int
	Start  int64
	End    int64
}

// tracer keeps spans in memory and writes them once, at exit. A nil
// tracer records nothing, which is how the replica's warm-up runs.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) start(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// dur is the duration of span id in nanoseconds.
func (t *tracer) dur(id int) int64 { return t.spans[id].End - t.spans[id].Start }

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children of one parent may
// overlap each other; covered time is counted once.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	// covered[p] is the end of the covered prefix of p's interval;
	// spans are appended in start order, so one pass suffices.
	covered := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		covered[i] = s.Start
	}
	for _, s := range spans {
		p := s.Parent
		if p < 0 {
			continue
		}
		from, to := s.Start, s.End
		if from < covered[p] {
			from = covered[p]
		}
		if to > spans[p].End {
			to = spans[p].End
		}
		if to > from {
			self[p] -= to - from
			covered[p] = to
		}
	}
	return self
}

// workloadTrace is the span set of one workload's traced pass.
type workloadTrace struct {
	workload string
	tr       *tracer
}

// writeTraces stores every span of the run in dir/trace.json as one
// JSON array, a span per line, with its self time worked out.
func writeTraces(dir string, traces []workloadTrace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	// A bufio.Writer keeps its first error and returns it from Flush.
	w := bufio.NewWriterSize(f, 1<<16)
	buf := make([]byte, 0, 192)
	sep := "[\n"
	for _, t := range traces {
		self := selfTimes(t.tr.spans)
		for i, s := range t.tr.spans {
			buf = append(buf[:0], sep...)
			sep = ",\n"
			buf = append(buf, `{"workload":`...)
			buf = strconv.AppendQuote(buf, t.workload)
			buf = append(buf, `,"id":`...)
			buf = strconv.AppendInt(buf, int64(i), 10)
			buf = append(buf, `,"name":`...)
			buf = strconv.AppendQuote(buf, s.Name)
			buf = append(buf, `,"req":`...)
			buf = strconv.AppendInt(buf, int64(s.Req), 10)
			buf = append(buf, `,"parent":`...)
			buf = strconv.AppendInt(buf, int64(s.Parent), 10)
			buf = append(buf, `,"start_ns":`...)
			buf = strconv.AppendInt(buf, s.Start, 10)
			buf = append(buf, `,"end_ns":`...)
			buf = strconv.AppendInt(buf, s.End, 10)
			buf = append(buf, `,"self_ns":`...)
			buf = strconv.AppendInt(buf, self[i], 10)
			buf = append(buf, '}')
			w.Write(buf)
		}
	}
	if sep == "[\n" {
		w.WriteString("[")
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
