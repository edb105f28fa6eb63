package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/value"
)

// FromCSV reads a base relation named name from CSV data: the first
// record is the header (column names), subsequent records are rows.
// Column types are inferred: a column whose every non-empty cell
// parses as an integer becomes INT, else FLOAT if everything parses
// as a float, else STRING. Empty cells are NULL. Row identifiers are
// assigned in file order.
func FromCSV(name string, r io.Reader) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV for %q: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("relation: CSV for %q has no header", name)
	}
	header := records[0]
	if len(header) == 0 {
		return nil, fmt.Errorf("relation: CSV for %q has an empty header", name)
	}
	rows := records[1:]

	// Infer per-column types over the non-empty cells.
	kinds := make([]value.Kind, len(header))
	for col := range header {
		kind := value.KindInt
		seen := false
		for _, rec := range rows {
			if col >= len(rec) || rec[col] == "" {
				continue
			}
			seen = true
			cell := rec[col]
			if kind == value.KindInt {
				if _, err := strconv.ParseInt(cell, 10, 64); err == nil {
					continue
				}
				kind = value.KindFloat
			}
			if kind == value.KindFloat {
				if _, err := strconv.ParseFloat(cell, 64); err == nil {
					continue
				}
				kind = value.KindString
			}
		}
		if !seen {
			kind = value.KindString
		}
		kinds[col] = kind
	}

	b := NewBuilder(name, header...)
	for i, rec := range rows {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relation: CSV for %q row %d has %d fields, header has %d",
				name, i+1, len(rec), len(header))
		}
		vals := make([]value.Value, len(header))
		for col, cell := range rec {
			if cell == "" {
				vals[col] = value.Null
				continue
			}
			switch kinds[col] {
			case value.KindInt:
				n, _ := strconv.ParseInt(cell, 10, 64)
				vals[col] = value.NewInt(n)
			case value.KindFloat:
				f, _ := strconv.ParseFloat(cell, 64)
				vals[col] = value.NewFloat(f)
			default:
				vals[col] = value.NewString(cell)
			}
		}
		b.Row(vals...)
	}
	return b.Relation(), nil
}
