package reorder

import (
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/value"
)

// shapeMemoCap bounds a Service's template memo. Past it a random
// entry makes room; an evicted shape only costs its next request the
// full front end.
const shapeMemoCap = 4096

// template is one literal-masked statement shape lowered for serving:
// the parameterized plan, its canonical key and hash, and the slot map
// that reads a request's parameters off its tokens (slots[i] is the
// token that binds $i+1). Immutable once built.
type template struct {
	node  plan.Node
	key   string
	hash  uint64
	slots []int
}

// shapeMemo maps a token shape (sql.Tokens.AppendShape) to its
// template. An entry depends on nothing but the shape and the served
// schema, so it never goes stale.
type shapeMemo struct {
	mu     sync.RWMutex
	m      map[string]*template
	hits   atomic.Int64 // requests served through the memo
	misses atomic.Int64 // requests that took the full front end (bypass excluded)
}

func (m *shapeMemo) get(shape []byte) *template {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.m[string(shape)]
}

func (m *shapeMemo) put(shape []byte, t *template) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = make(map[string]*template)
	}
	if _, ok := m.m[string(shape)]; !ok && len(m.m) >= shapeMemoCap {
		for victim := range m.m { // map order is randomized
			delete(m.m, victim)
			break
		}
	}
	m.m[string(shape)] = t
}

func (m *shapeMemo) len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.m)
}

// frontEnd turns a request's SQL into its lowered template and the
// parameters that bind it. A request whose token shape is memoized
// skips parsing, parameterization, lowering and keying: its literal
// tokens are converted with the parser's own conversion and read into
// the slots. A new shape, a literal that fails to convert, and a
// bypass request (which computes no shape) run the full front end;
// only a template it completes is memoized. Errors are *ServeError.
func (s *Service) frontEnd(req Request) (*template, []value.Value, error) {
	toks, err := sql.Lex(req.SQL)
	if err != nil {
		return nil, nil, classify(err, true)
	}
	var shape []byte
	if req.Cache != "bypass" {
		var buf [512]byte
		shape = toks.AppendShape(buf[:0])
		if t := s.shapes.get(shape); t != nil {
			if params, err := toks.Params(t.slots); err == nil {
				s.shapes.hits.Add(1)
				return t, params, nil
			}
		}
		s.shapes.misses.Add(1)
	}
	stmt, err := toks.Parse()
	if err != nil {
		return nil, nil, classify(err, true)
	}
	tmpl, params, slots := sql.ParameterizeSlots(stmt)
	node, err := sql.Lower(tmpl, s.db)
	if err != nil {
		return nil, nil, classify(err, true)
	}
	t := &template{node: node, key: plan.Key(node), hash: plan.Fingerprint(node), slots: slots}
	if shape != nil && slots != nil {
		s.shapes.put(shape, t)
	}
	return t, params, nil
}
