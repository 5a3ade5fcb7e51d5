package scalesim

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"scalesim/internal/metrics"
)

// Table is one regenerated figure or study: an id and a title over blocks of
// labelled rows of numbers. Every figure of Experiments.Figures is a Table,
// so String is the one text renderer and encoding/json the one
// machine-readable form (the layout fields travel too: a decoded table
// renders the same text).
type Table struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	Blocks []Block `json:"blocks"`
}

// Block is a run of rows over the same columns. A block with a Label prints a
// header line naming its columns; Heading, if set, is a line of its own
// before that.
type Block struct {
	Heading string   `json:"heading,omitempty"`
	Label   string   `json:"label,omitempty"`
	Columns []Column `json:"columns"`
	Rows    []Row    `json:"rows"`
	// LabelFormat renders a row's label, the line's first cell, e.g. "  %-12s".
	LabelFormat string `json:"label_format"`
}

// Column is a named numeric column. Unit "%" marks a fraction that the text
// shows as a percentage; any other unit is printed as it is stored.
type Column struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Format renders one cell with its surrounding text, e.g. " %11.1f%%".
	Format string `json:"format"`
}

// Row is one labelled line of a block, a value per column.
type Row struct {
	Label  string `json:"label"`
	Values []Cell `json:"values"`
}

// Cell is one number of a table. NaN and ±Inf (metrics.PredictionError of a
// zero actual is NaN) are JSON null, which decodes as NaN.
type Cell float64

// MarshalJSON writes a finite cell as a number and any other as null.
func (c Cell) MarshalJSON() ([]byte, error) {
	if f := float64(c); !math.IsNaN(f) && !math.IsInf(f, 0) {
		return json.Marshal(f)
	}
	return []byte("null"), nil
}

// UnmarshalJSON reads null as NaN.
func (c *Cell) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*c = Cell(math.NaN())
		return nil
	}
	return json.Unmarshal(b, (*float64)(c))
}

// String renders the table as text: the "ID — Title" line, then per block its
// heading, its header line and its rows.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	for _, blk := range t.Blocks {
		if blk.Heading != "" {
			fmt.Fprintf(&b, "  %s\n", blk.Heading)
		}
		if blk.Label != "" {
			// A column name is right-aligned over its cell, one space in.
			fmt.Fprintf(&b, blk.LabelFormat, blk.Label)
			for _, c := range blk.Columns {
				fmt.Fprintf(&b, " %*s", len(fmt.Sprintf(c.Format, 0.0))-1, c.Name)
			}
			b.WriteByte('\n')
		}
		for _, r := range blk.Rows {
			fmt.Fprintf(&b, blk.LabelFormat, r.Label)
			for i, v := range r.Values {
				x := float64(v)
				if blk.Columns[i].Unit == "%" {
					x *= 100
				}
				fmt.Fprintf(&b, blk.Columns[i].Format, x)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Cell returns the number at row label and column name in the first block
// that has both, or NaN: a comparison of cells fails on a missing one.
func (t *Table) Cell(label, column string) float64 {
	for _, blk := range t.Blocks {
		c := slices.IndexFunc(blk.Columns, func(c Column) bool { return c.Name == column })
		r := slices.IndexFunc(blk.Rows, func(r Row) bool { return r.Label == label })
		if c >= 0 && r >= 0 && c < len(blk.Rows[r].Values) {
			return float64(blk.Rows[r].Values[c])
		}
	}
	return math.NaN()
}

// columns are named columns of one unit and cell format.
func columns(unit, format string, names ...string) []Column {
	cols := make([]Column, len(names))
	for i, name := range names {
		cols[i] = Column{Name: name, Unit: unit, Format: format}
	}
	return cols
}

// summaryBlock lays out one metrics.Summary per label as the paper quotes
// it: "avg 5.1% (max 9.0%, n=29)".
func summaryBlock(labelFormat string, labels []string, sums ...metrics.Summary) Block {
	blk := Block{LabelFormat: labelFormat, Columns: []Column{
		{Name: "avg", Unit: "%", Format: " avg %.1f%%"},
		{Name: "max", Unit: "%", Format: " (max %.1f%%"},
		{Name: "n", Unit: "count", Format: ", n=%.0f)"},
	}}
	for i, s := range sums {
		blk.Rows = append(blk.Rows, Row{Label: labels[i], Values: []Cell{Cell(s.Mean), Cell(s.Max), Cell(s.N)}})
	}
	return blk
}
