package plan

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/schema"
)

// The JSON plan encoding is a tagged union per operator, used for
// plan caching and external tooling. EncodeJSON ∘ DecodeJSON is the
// identity up to canonical plan strings (round-trip tested).

type jsonNode struct {
	Op        string          `json:"op"`
	Rel       string          `json:"rel,omitempty"`
	As        string          `json:"as,omitempty"`
	Kind      string          `json:"kind,omitempty"`
	Pred      json.RawMessage `json:"pred,omitempty"`
	Left      json.RawMessage `json:"left,omitempty"`
	Right     json.RawMessage `json:"right,omitempty"`
	Input     json.RawMessage `json:"input,omitempty"`
	Preserved [][]string      `json:"preserved,omitempty"`
	Keys      []jsonAttr      `json:"keys,omitempty"`
	Aggs      []jsonAgg       `json:"aggs,omitempty"`
	Attrs     []jsonAttr      `json:"attrs,omitempty"`
	Distinct  bool            `json:"distinct,omitempty"`
	SortKeys  []jsonSortKey   `json:"sortKeys,omitempty"`
	Limit     *int            `json:"limit,omitempty"`
	Origin    string          `json:"origin,omitempty"`
	Actual    *jsonActual     `json:"actual,omitempty"`
}

type jsonAttr struct {
	Rel     string `json:"rel"`
	Col     string `json:"col"`
	Virtual bool   `json:"virtual,omitempty"`
}

type jsonAgg struct {
	Func        string          `json:"func"`
	Arg         json.RawMessage `json:"arg,omitempty"`
	Out         jsonAttr        `json:"out"`
	NullIfEmpty bool            `json:"nullIfEmpty,omitempty"`
}

type jsonSortKey struct {
	Attr jsonAttr `json:"attr"`
	Desc bool     `json:"desc,omitempty"`
}

// jsonActual carries a node's EXPLAIN ANALYZE measurements through
// the JSON encoding; absent on plain plans.
type jsonActual struct {
	Rows      int              `json:"rows"`
	EstRows   float64          `json:"estRows,omitempty"`
	ElapsedNs int64            `json:"elapsedNs"`
	Extra     map[string]int64 `json:"extra,omitempty"`
}

func attrToJSON(a schema.Attribute) jsonAttr {
	return jsonAttr{Rel: a.Rel, Col: a.Col, Virtual: a.Virtual}
}

func attrFromJSON(j jsonAttr) schema.Attribute {
	return schema.Attribute{Rel: j.Rel, Col: j.Col, Virtual: j.Virtual}
}

// EncodeJSON serializes a plan.
func EncodeJSON(n Node) ([]byte, error) { return encodeJSON(n, nil) }

// EncodeJSONAnnotated serializes a plan with each node's EXPLAIN
// ANALYZE annotation (actual rows, estimated rows, timing, operator
// counters) attached under the "actual" key. DecodeJSONAnnotated
// inverts it.
func EncodeJSONAnnotated(n Node, ann Annotations) ([]byte, error) {
	return encodeJSON(n, ann)
}

func encodeJSON(n Node, ann Annotations) ([]byte, error) {
	j, err := buildJSONNode(n, ann)
	if err != nil {
		return nil, err
	}
	if a := ann[n]; a != nil {
		j.Actual = &jsonActual{Rows: a.Rows, EstRows: a.EstRows, ElapsedNs: int64(a.Elapsed), Extra: a.Extra}
	}
	return json.Marshal(j)
}

func buildJSONNode(n Node, ann Annotations) (jsonNode, error) {
	switch m := n.(type) {
	case *Scan:
		return jsonNode{Op: "scan", Rel: m.Rel, As: m.As}, nil
	case *Join:
		pred, err := expr.EncodePred(m.Pred)
		if err != nil {
			return jsonNode{}, err
		}
		l, err := encodeJSON(m.L, ann)
		if err != nil {
			return jsonNode{}, err
		}
		r, err := encodeJSON(m.R, ann)
		if err != nil {
			return jsonNode{}, err
		}
		return jsonNode{Op: "join", Kind: m.Kind.String(), Pred: pred, Left: l, Right: r}, nil
	case *Select:
		pred, err := expr.EncodePred(m.Pred)
		if err != nil {
			return jsonNode{}, err
		}
		in, err := encodeJSON(m.Input, ann)
		if err != nil {
			return jsonNode{}, err
		}
		return jsonNode{Op: "select", Pred: pred, Input: in}, nil
	case *GenSel:
		pred, err := expr.EncodePred(m.Pred)
		if err != nil {
			return jsonNode{}, err
		}
		in, err := encodeJSON(m.Input, ann)
		if err != nil {
			return jsonNode{}, err
		}
		specs := make([][]string, len(m.Preserved))
		for i, s := range m.Preserved {
			specs[i] = append([]string(nil), s...)
		}
		return jsonNode{Op: "gensel", Pred: pred, Input: in, Preserved: specs}, nil
	case *MGOJNode:
		pred, err := expr.EncodePred(m.Pred)
		if err != nil {
			return jsonNode{}, err
		}
		l, err := encodeJSON(m.L, ann)
		if err != nil {
			return jsonNode{}, err
		}
		r, err := encodeJSON(m.R, ann)
		if err != nil {
			return jsonNode{}, err
		}
		specs := make([][]string, len(m.Preserved))
		for i, s := range m.Preserved {
			specs[i] = append([]string(nil), s...)
		}
		return jsonNode{Op: "mgoj", Pred: pred, Left: l, Right: r, Preserved: specs}, nil
	case *GroupBy:
		in, err := encodeJSON(m.Input, ann)
		if err != nil {
			return jsonNode{}, err
		}
		keys := make([]jsonAttr, len(m.Keys))
		for i, k := range m.Keys {
			keys[i] = attrToJSON(k)
		}
		aggs, err := aggsToJSON(m.Aggs)
		if err != nil {
			return jsonNode{}, err
		}
		return jsonNode{Op: "groupby", Input: in, Keys: keys, Aggs: aggs}, nil
	case *Project:
		in, err := encodeJSON(m.Input, ann)
		if err != nil {
			return jsonNode{}, err
		}
		attrs := make([]jsonAttr, len(m.Attrs))
		for i, a := range m.Attrs {
			attrs[i] = attrToJSON(a)
		}
		return jsonNode{Op: "project", Input: in, Attrs: attrs, Distinct: m.Distinct}, nil
	case *Sort:
		in, err := encodeJSON(m.Input, ann)
		if err != nil {
			return jsonNode{}, err
		}
		keys := make([]jsonSortKey, len(m.Keys))
		for i, k := range m.Keys {
			keys[i] = jsonSortKey{Attr: attrToJSON(k.Attr), Desc: k.Desc}
		}
		limit := m.Limit
		return jsonNode{Op: "sort", Input: in, SortKeys: keys, Limit: &limit, Origin: m.Origin}, nil
	default:
		return jsonNode{}, fmt.Errorf("plan: cannot encode %T", n)
	}
}

// aggsToJSON / aggsFromJSON convert aggregate lists.
func aggsToJSON(aggs []algebra.Aggregate) ([]jsonAgg, error) {
	out := make([]jsonAgg, len(aggs))
	for i, a := range aggs {
		ja := jsonAgg{Func: a.Func.String(), Out: attrToJSON(a.Out), NullIfEmpty: a.NullIfEmpty}
		if a.Arg != nil {
			arg, err := expr.EncodeScalar(a.Arg)
			if err != nil {
				return nil, err
			}
			ja.Arg = arg
		}
		out[i] = ja
	}
	return out, nil
}

func aggsFromJSON(jaggs []jsonAgg) ([]algebra.Aggregate, error) {
	aggs := make([]algebra.Aggregate, len(jaggs))
	for i, ja := range jaggs {
		fn, err := aggFuncOf(ja.Func)
		if err != nil {
			return nil, err
		}
		a := algebra.Aggregate{Func: fn, Out: attrFromJSON(ja.Out), NullIfEmpty: ja.NullIfEmpty}
		if len(ja.Arg) > 0 {
			arg, err := expr.DecodeScalar(ja.Arg)
			if err != nil {
				return nil, err
			}
			a.Arg = arg
		}
		aggs[i] = a
	}
	return aggs, nil
}

// DecodeJSON deserializes a plan.
func DecodeJSON(data []byte) (Node, error) { return decodeJSON(data, nil) }

// DecodeJSONAnnotated deserializes a plan encoded by
// EncodeJSONAnnotated, reconstructing the per-node annotations keyed
// by the freshly decoded nodes.
func DecodeJSONAnnotated(data []byte) (Node, Annotations, error) {
	ann := Annotations{}
	n, err := decodeJSON(data, ann)
	if err != nil {
		return nil, nil, err
	}
	return n, ann, nil
}

func decodeJSON(data []byte, ann Annotations) (Node, error) {
	var j jsonNode
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, err
	}
	n, err := nodeFromJSON(j, ann)
	if err != nil {
		return nil, err
	}
	if j.Actual != nil && ann != nil {
		ann[n] = &Annotation{
			Rows:    j.Actual.Rows,
			EstRows: j.Actual.EstRows,
			Elapsed: time.Duration(j.Actual.ElapsedNs),
			Extra:   j.Actual.Extra,
		}
	}
	return n, nil
}

func nodeFromJSON(j jsonNode, ann Annotations) (Node, error) {
	switch j.Op {
	case "scan":
		if j.Rel == "" {
			return nil, fmt.Errorf("plan: scan without relation")
		}
		return &Scan{Rel: j.Rel, As: j.As}, nil
	case "join", "mgoj":
		pred, err := expr.DecodePred(j.Pred)
		if err != nil {
			return nil, err
		}
		l, err := decodeJSON(j.Left, ann)
		if err != nil {
			return nil, err
		}
		r, err := decodeJSON(j.Right, ann)
		if err != nil {
			return nil, err
		}
		if j.Op == "mgoj" {
			return NewMGOJ(pred, specsFromJSON(j.Preserved), l, r), nil
		}
		kind, err := joinKindOf(j.Kind)
		if err != nil {
			return nil, err
		}
		return NewJoin(kind, pred, l, r), nil
	case "select", "gensel":
		pred, err := expr.DecodePred(j.Pred)
		if err != nil {
			return nil, err
		}
		in, err := decodeJSON(j.Input, ann)
		if err != nil {
			return nil, err
		}
		if j.Op == "select" {
			return NewSelect(pred, in), nil
		}
		return NewGenSel(pred, specsFromJSON(j.Preserved), in), nil
	case "groupby":
		in, err := decodeJSON(j.Input, ann)
		if err != nil {
			return nil, err
		}
		keys := make([]schema.Attribute, len(j.Keys))
		for i, k := range j.Keys {
			keys[i] = attrFromJSON(k)
		}
		aggs, err := aggsFromJSON(j.Aggs)
		if err != nil {
			return nil, err
		}
		return NewGroupBy(keys, aggs, in), nil
	case "project":
		in, err := decodeJSON(j.Input, ann)
		if err != nil {
			return nil, err
		}
		attrs := make([]schema.Attribute, len(j.Attrs))
		for i, a := range j.Attrs {
			attrs[i] = attrFromJSON(a)
		}
		return NewProject(attrs, j.Distinct, in), nil
	case "sort":
		in, err := decodeJSON(j.Input, ann)
		if err != nil {
			return nil, err
		}
		keys := make([]SortKey, len(j.SortKeys))
		for i, k := range j.SortKeys {
			keys[i] = SortKey{Attr: attrFromJSON(k.Attr), Desc: k.Desc}
		}
		limit := -1
		if j.Limit != nil {
			limit = *j.Limit
		}
		return NewSortOrigin(keys, limit, in, j.Origin), nil
	default:
		return nil, fmt.Errorf("plan: unknown operator %q", j.Op)
	}
}

func specsFromJSON(specs [][]string) []PreservedSpec {
	out := make([]PreservedSpec, len(specs))
	for i, s := range specs {
		out[i] = NewPreserved(s...)
	}
	return out
}

func joinKindOf(s string) (JoinKind, error) {
	switch s {
	case "JOIN":
		return InnerJoin, nil
	case "LOJ":
		return LeftJoin, nil
	case "ROJ":
		return RightJoin, nil
	case "FOJ":
		return FullJoin, nil
	}
	return 0, fmt.Errorf("plan: unknown join kind %q", s)
}

func aggFuncOf(s string) (algebra.AggFunc, error) {
	for _, f := range []algebra.AggFunc{
		algebra.CountStar, algebra.Count, algebra.CountDistinct,
		algebra.Sum, algebra.SumDistinct, algebra.Min, algebra.Max,
		algebra.Avg, algebra.AvgDistinct,
	} {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("plan: unknown aggregate %q", s)
}
