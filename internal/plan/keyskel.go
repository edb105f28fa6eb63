package plan

import (
	"strconv"
	"strings"

	"repro/internal/value"
)

// KeySkeleton is a parameterized plan's canonical key split at its
// "$n" slot renderings. Key renders a tree positionally and a bound
// Const renders where its Param rendered, so the key of any binding of
// the plan is the skeleton with each slot's value spliced in — without
// building the bound tree's keys node by node.
type KeySkeleton struct {
	text  []string // len(slots)+1 fixed segments
	slots []int    // 0-based parameter index between text[i] and text[i+1]
	fixed int      // total length of text
}

// NewKeySkeleton splits Key(n) at its parameter renderings. It returns
// nil when the split cannot be trusted: a "$" that is not a parameter
// rendering (a relation named "t$1", a string constant "$1"), or any
// other disagreement, which one check finds — splicing distinct
// sentinel values must reproduce the key BindParams' tree renders.
func NewKeySkeleton(n Node) *KeySkeleton {
	key := Key(n)
	nparams := ParamCount(n)
	k := &KeySkeleton{}
	rest := key
	for {
		at := strings.IndexByte(rest, '$')
		if at < 0 {
			break
		}
		end := at + 1
		for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
			end++
		}
		idx, err := strconv.Atoi(rest[at+1 : end])
		if err != nil || idx < 1 || idx > nparams {
			return nil
		}
		k.text = append(k.text, rest[:at])
		k.slots = append(k.slots, idx-1)
		rest = rest[end:]
	}
	k.text = append(k.text, rest)
	for _, t := range k.text {
		k.fixed += len(t)
	}
	sentinels := make([]value.Value, nparams)
	for i := range sentinels {
		sentinels[i] = value.NewInt(1e15 + int64(i))
	}
	bound, err := BindParams(n, sentinels)
	if err != nil || Key(bound) != k.Splice(sentinels) {
		return nil
	}
	return k
}

// Splice returns Key(BindParams(n, params)) for the n the skeleton was
// built from. params must cover every slot the plan references.
func (k *KeySkeleton) Splice(params []value.Value) string {
	var b strings.Builder
	b.Grow(k.fixed + 8*len(k.slots))
	var scratch [32]byte
	for i, t := range k.text {
		b.WriteString(t)
		if i == len(k.slots) {
			break
		}
		// The renderings of value.GoString, appended without
		// intermediate strings.
		switch v := params[k.slots[i]]; v.Kind() {
		case value.KindInt:
			b.Write(strconv.AppendInt(scratch[:0], v.Int(), 10))
		case value.KindFloat:
			b.Write(strconv.AppendFloat(scratch[:0], v.Float(), 'g', -1, 64))
		case value.KindString:
			b.Write(strconv.AppendQuote(scratch[:0], v.Str()))
		default:
			b.WriteString(v.GoString())
		}
	}
	return b.String()
}
