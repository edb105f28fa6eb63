package reorder

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/batch"
	"repro/internal/value"
)

// This file is the /query handler's response encoder. It writes a
// Response straight from the result's typed column vectors into a byte
// buffer — no Rows, no [][]any, no reflection — and its output is
// byte-identical to json.NewEncoder(w).Encode of the same Response
// with Rows filled by Query (wire_test.go pins it): fields in
// declaration order, omitempty honoured, strings HTML-escaped, floats
// formatted with encoding/json's cutoffs, one trailing newline.

// appendResponse appends the wire encoding of resp, whose result is
// resp.rel, to dst. A non-finite float anywhere in the response is an
// error: JSON cannot represent it.
func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	b := append(dst, `{"columns":`...)
	if resp.Columns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range resp.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows":[`...)
	rel := resp.rel
	cols := make([]*batch.Vec, rel.Width())
	for c := range cols {
		cols[c] = rel.Col(c)
	}
	for i := 0; i < rel.N; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for c, col := range cols {
			if c > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendCell(b, col, i); !ok {
				return dst, fmt.Errorf("reorder: result column %s row %d: %v is not representable in JSON",
					resp.Columns[c], i, col.At(i))
			}
		}
		b = append(b, ']')
	}
	b = append(b, `],"cache":`...)
	b = appendString(b, resp.CacheStatus)
	b = append(b, `,"plan_key":`...)
	b = appendString(b, resp.PlanKey)
	b = append(b, `,"params":`...)
	b = strconv.AppendInt(b, int64(resp.Params), 10)
	if resp.Degraded != "" {
		b = append(b, `,"degraded":`...)
		b = appendString(b, resp.Degraded)
	}
	b = append(b, `,"queued_ns":`...)
	b = strconv.AppendInt(b, resp.QueuedNs, 10)
	b = append(b, `,"optimize_ns":`...)
	b = strconv.AppendInt(b, resp.OptimizeNs, 10)
	b = append(b, `,"bind_ns":`...)
	b = strconv.AppendInt(b, resp.BindNs, 10)
	b = append(b, `,"exec_ns":`...)
	b = strconv.AppendInt(b, resp.ExecNs, 10)
	if resp.MaxQError != 0 {
		b = append(b, `,"max_qerror":`...)
		var ok bool
		if b, ok = appendFloat(b, resp.MaxQError); !ok {
			return dst, fmt.Errorf("reorder: max_qerror %v is not representable in JSON", resp.MaxQError)
		}
	}
	if resp.FeedbackCorrections != 0 {
		b = append(b, `,"feedback_corrections":`...)
		b = strconv.AppendInt(b, int64(resp.FeedbackCorrections), 10)
	}
	if resp.ReplanGen != 0 {
		b = append(b, `,"replan_gen":`...)
		b = strconv.AppendInt(b, resp.ReplanGen, 10)
	}
	if resp.Replanned {
		b = append(b, `,"replanned":true`...)
	}
	return append(b, "}\n"...), nil
}

// appendCell appends row i of col; ok is false for a non-finite float.
func appendCell(b []byte, col *batch.Vec, i int) ([]byte, bool) {
	if col.IsNull(i) {
		return append(b, "null"...), true
	}
	switch col.Phys {
	case batch.PhysInt:
		return strconv.AppendInt(b, col.Ints[i], 10), true
	case batch.PhysFloat:
		return appendFloat(b, col.Floats[i])
	case batch.PhysStr:
		return appendString(b, col.Strs[i]), true
	case batch.PhysBool:
		return strconv.AppendBool(b, col.Bools[i]), true
	}
	// PhysAny: the kind varies cell by cell.
	v := col.Any[i]
	switch v.Kind() {
	case value.KindInt:
		return strconv.AppendInt(b, v.Int(), 10), true
	case value.KindFloat:
		return appendFloat(b, v.Float())
	case value.KindString:
		return appendString(b, v.Str()), true
	case value.KindBool:
		return strconv.AppendBool(b, v.Bool()), true
	}
	return append(b, "null"...), true
}

// appendFloat appends f as encoding/json writes a float64: the
// shortest decimal that round-trips, in 'f' notation unless |f| is
// below 1e-6 or at least 1e21, where it switches to 'e' with the
// exponent unpadded. ok is false for NaN and ±Inf.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a quoted JSON string with encoding/json's
// default escaping: quote and backslash, \b \f \n \r \t, \u00XX for the
// other control bytes and for < > & (HTML-safe), the replacement
// character's escape (\ufffd) for each byte of invalid UTF-8, and the
// escapes of the line and paragraph separators U+2028 and U+2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
