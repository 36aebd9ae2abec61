package engine

import (
	"fmt"
	"slices"
)

// PredKind enumerates the predicate kinds the engine supports, matching the
// three condition types in the paper's workloads (keyword, range, box).
type PredKind uint8

const (
	// PredKeyword matches rows whose text column contains a word.
	PredKeyword PredKind = iota
	// PredRange matches rows whose numeric/time column is in [Lo, Hi].
	PredRange
	// PredGeo matches rows whose point column falls inside Box.
	PredGeo
)

// String returns a short name for the predicate kind.
func (k PredKind) String() string {
	switch k {
	case PredKeyword:
		return "keyword"
	case PredRange:
		return "range"
	case PredGeo:
		return "geo"
	}
	return fmt.Sprintf("PredKind(%d)", uint8(k))
}

// Predicate is one conjunct of a query's WHERE clause.
type Predicate struct {
	Col  string
	Kind PredKind

	// PredKeyword
	Word     uint32
	WordText string // for SQL rendering

	// PredRange: inclusive bounds, as float64 (times are unix ms).
	Lo, Hi float64

	// PredGeo
	Box Rect
}

// Eval evaluates the predicate against one row of t.
func (p Predicate) Eval(t *Table, row uint32) bool {
	c := t.Col(p.Col)
	switch p.Kind {
	case PredKeyword:
		return HasToken(c.Texts[row], p.Word)
	case PredRange:
		v := c.NumericAt(row)
		return v >= p.Lo && v <= p.Hi
	case PredGeo:
		return p.Box.Contains(c.Points[row])
	}
	return false
}

// String renders the predicate as a SQL condition fragment.
func (p Predicate) String() string {
	switch p.Kind {
	case PredKeyword:
		return fmt.Sprintf("%s contains %q", p.Col, p.WordText)
	case PredRange:
		return fmt.Sprintf("%s BETWEEN %g AND %g", p.Col, p.Lo, p.Hi)
	case PredGeo:
		return fmt.Sprintf("%s IN ((%.4f, %.4f), (%.4f, %.4f))",
			p.Col, p.Box.MinLon, p.Box.MinLat, p.Box.MaxLon, p.Box.MaxLat)
	}
	return "?"
}

// boundOp selects a bound predicate's per-row kernel. The order of the
// constants is the cost order conjuncts are evaluated in where the work
// counters cannot observe evaluation order (see orderByCost): a range test
// on a contiguous numeric column, then a point-in-box test, then a binary
// search of a row's token list, which chases one pointer per row.
type boundOp uint8

const (
	opRangeInt   boundOp = iota // PredRange on an int64/time column
	opRangeFloat                // PredRange on a float64 column
	opGeo                       // PredGeo on a point column
	opKeyword                   // PredKeyword on a text column
	opEval                      // anything else: Predicate.Eval per row
)

// boundPred is a Predicate resolved against one table's column storage, so
// the per-row test indexes a typed slice instead of looking its column up by
// name and copying the Predicate. Executions bind once and evaluate many
// times; the semantics are exactly Predicate.Eval's.
type boundPred struct {
	op     boundOp
	lo, hi float64
	box    Rect
	word   uint32
	ints   []int64
	floats []float64
	points []Point
	texts  [][]uint32
	// opEval: a kind/column-type mismatch, a missing column or an unknown
	// kind keeps Predicate.Eval, and with it Eval's panic or false, at the
	// row where the unbound loop would have hit it.
	p *Predicate
	t *Table
}

// bindPred resolves p against t.
func bindPred(t *Table, p *Predicate) boundPred {
	b := boundPred{op: opEval, lo: p.Lo, hi: p.Hi, box: p.Box, word: p.Word, p: p, t: t}
	c, ok := t.byName[p.Col]
	if !ok {
		return b
	}
	switch {
	case p.Kind == PredRange && (c.Type == ColInt64 || c.Type == ColTime):
		b.op, b.ints = opRangeInt, c.Ints
	case p.Kind == PredRange && c.Type == ColFloat64:
		b.op, b.floats = opRangeFloat, c.Floats
	case p.Kind == PredGeo && c.Type == ColPoint:
		b.op, b.points = opGeo, c.Points
	case p.Kind == PredKeyword && c.Type == ColText:
		b.op, b.texts = opKeyword, c.Texts
	}
	return b
}

// bindPreds appends ps, bound against t in query order, to dst.
func bindPreds(dst []boundPred, t *Table, ps []Predicate) []boundPred {
	for i := range ps {
		dst = append(dst, bindPred(t, &ps[i]))
	}
	return dst
}

// eval evaluates the bound predicate against one row, through the same
// kernel filter runs.
func (b *boundPred) eval(row uint32) bool {
	one := [1]uint32{row}
	return len(b.filter(one[:])) == 1
}

// filter keeps the rows of sel the predicate accepts, in place and in
// order. The range and box kernels are branch-free: a conjunct passing about
// half the rows in random order would otherwise mispredict on every other
// row, which costs more than the comparisons themselves.
func (b *boundPred) filter(sel []uint32) []uint32 {
	n := 0
	switch b.op {
	case opRangeInt:
		ints, lo, hi := b.ints, b.lo, b.hi
		for _, r := range sel {
			v := float64(ints[r])
			sel[n] = r
			n += b2i(v >= lo) & b2i(v <= hi)
		}
	case opRangeFloat:
		floats, lo, hi := b.floats, b.lo, b.hi
		for _, r := range sel {
			v := floats[r]
			sel[n] = r
			n += b2i(v >= lo) & b2i(v <= hi)
		}
	case opGeo:
		points, box := b.points, b.box
		for _, r := range sel {
			p := points[r]
			sel[n] = r
			n += b2i(p.Lon >= box.MinLon) & b2i(p.Lon <= box.MaxLon) &
				b2i(p.Lat >= box.MinLat) & b2i(p.Lat <= box.MaxLat)
		}
	case opKeyword:
		texts, word := b.texts, b.word
		for _, r := range sel {
			sel[n] = r
			n += b2i(HasToken(texts[r], word))
		}
	default:
		for _, r := range sel {
			sel[n] = r
			n += b2i(b.p.Eval(b.t, r))
		}
	}
	return sel[:n]
}

// evalsUntilReject returns how many conjuncts a short-circuiting loop
// evaluates on row: up to and including the first that rejects it.
func evalsUntilReject(preds []boundPred, row uint32) int {
	for i := range preds {
		if !preds[i].eval(row) {
			return i + 1
		}
	}
	return len(preds)
}

// b2i converts a comparison result to 0 or 1; the compiler emits a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// orderByCost reorders conjuncts cheapest kernel first, keeping query order
// within a kernel. Only callers whose counters charge per row rather than per
// evaluated conjunct may use it; a conjunction's truth does not depend on its
// order. Conjuncts that fall back to Predicate.Eval may panic, so their
// presence keeps query order and the panic where it was.
func orderByCost(preds []boundPred) {
	for i := range preds {
		if preds[i].op == opEval {
			return
		}
	}
	slices.SortStableFunc(preds, func(a, b boundPred) int { return int(a.op) - int(b.op) })
}
