package plan

import (
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/schema"
)

// A cached plan runs the same operators over the same base schemas on
// every request, so what an operator derives from its input schemas
// alone — its output schema, a join's equi-key split — is derived once
// and kept on the node, next to its fingerprint. The executor fills a
// node's Shape the first time the node runs and reads it afterwards.
//
// A shape is keyed by the *schema.Schema pointers of the inputs it was
// derived from. Schemas are immutable and a scan hands on its base
// relation's own schema pointer, so one pointer compare decides
// whether a shape still fits, and a plan run over another Database
// just derives its shape again. Every operator hands on its input's
// schema or its own shape's output schema, so above the scans the
// pointers are as stable as the scans' own.
//
// BindParams rebuilds the spine above a bound parameter on every
// request. A rebuilt node shares its template node's cell (not a copy
// of the cell's value), so the first execution fills the template's
// cell and every later bound copy reads it. A Join or MGOJ whose own
// predicate changed under binding gets a cell of its own: its residual
// holds the bound constants.

// Shape is what executing a node derives from its input schemas. Its
// slices are shared by every execution that reads the shape; nothing
// may write to them.
type Shape struct {
	// In are the input schemas the shape was derived from: In[0] is a
	// scan's base relation schema or a unary operator's input, In[1]
	// is nil except for binary operators.
	In [2]*schema.Schema
	// Out is the node's output schema.
	Out *schema.Schema
	// Cols are input positions: a projection's output columns, or a
	// grouping's key columns.
	Cols []int
	// LI, RI and Residual are a join's hashable equality conjuncts —
	// LI[k] in the left input paired with RI[k] in the right — and the
	// rest of its predicate.
	LI, RI   []int
	Residual expr.Pred
}

// shapeCell holds a node's Shape and the rendered column names of its
// output.
type shapeCell struct {
	shape atomic.Pointer[Shape]
	cols  atomic.Pointer[colsVal]
}

// colsVal is the column names of out.
type colsVal struct {
	out   *schema.Schema
	names []string
}

// shapeRef is a node's shape cell: its own, or — on a node BindParams
// rebuilt — the template node's.
type shapeRef struct {
	own    shapeCell
	shared *shapeCell
}

func (r *shapeRef) cell() *shapeCell {
	if r.shared != nil {
		return r.shared
	}
	return &r.own
}

// shaper is implemented by every node in this package; external Node
// implementations cache nothing.
type shaper interface {
	shapeCell() *shapeCell
}

func (c *fpCache) shapeCell() *shapeCell { return c.shape.cell() }

// shareShape makes c use the shape cell of t, the template node a bound
// copy was rebuilt from.
func (c *fpCache) shareShape(t *fpCache) { c.shape.shared = t.shapeCell() }

// CachedShape returns n's shape when it was derived from exactly the
// input schemas l and r (r nil for a scan or a unary operator), and nil
// otherwise.
func CachedShape(n Node, l, r *schema.Schema) *Shape {
	s, ok := n.(shaper)
	if !ok {
		return nil
	}
	if sh := s.shapeCell().shape.Load(); sh != nil && sh.In[0] == l && sh.In[1] == r {
		return sh
	}
	return nil
}

// OfferShape stores sh as n's shape unless n already holds one, and
// returns sh. Concurrent first executions derive equal shapes, so it
// does not matter whose is kept.
func OfferShape(n Node, sh *Shape) *Shape {
	if s, ok := n.(shaper); ok {
		s.shapeCell().shape.CompareAndSwap(nil, sh)
	}
	return sh
}

// Columns returns the rendered names ("rel.col") of out's attributes,
// the result columns of a plan rooted at n, cached on n for out. The
// slice is shared by every caller that gets it; nothing may write to
// it.
func Columns(n Node, out *schema.Schema) []string {
	s, ok := n.(shaper)
	if !ok {
		return columnNames(out)
	}
	cell := s.shapeCell()
	if c := cell.cols.Load(); c != nil && c.out == out {
		return c.names
	}
	c := &colsVal{out: out, names: columnNames(out)}
	cell.cols.CompareAndSwap(nil, c)
	return c.names
}

func columnNames(s *schema.Schema) []string {
	names := make([]string, s.Len())
	for i := range names {
		names[i] = s.At(i).String()
	}
	return names
}

// renamed is base requalified to the scan's alias, cached on the scan
// for base.
func (s *Scan) renamed(base *schema.Schema) *schema.Schema {
	if sh := CachedShape(s, base, nil); sh != nil {
		return sh.Out
	}
	return OfferShape(s, &Shape{In: [2]*schema.Schema{base}, Out: renameSchema(base, s.Rel, s.As)}).Out
}
