package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// FuzzScanKernel differentially tests the executor's bound, chunked and
// cost-ordered scan kernels against referenceRun, a row-at-a-time executor
// that calls Predicate.Eval in query order. Every input draws a table, one to
// three predicates (empty, inverted and degenerate bounds included, plus an
// unknown predicate kind that always rejects), a hint mask, a LIMIT, a row-
// sampling rate and a join, and the two executors must agree on the rows,
// Truncated and every ExecStats field, virtual time included.
//
//	go test -run='^$' -fuzz=FuzzScanKernel -fuzztime=10s ./internal/engine/
func FuzzScanKernel(f *testing.F) {
	f.Add(uint8(0), []byte{1, 50, 200, 3, 40, 20, 200, 160, 0, 4}, uint8(3), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(1), []byte{2, 9, 120, 3, 0, 0, 255, 255, 3, 0}, uint8(0), uint16(17), uint8(90), uint8(0))
	f.Add(uint8(2), []byte{0, 3, 1, 200, 10, 4, 0, 30, 0, 4, 1}, uint8(6), uint16(0), uint8(0), uint8(2))
	f.Add(uint8(3), []byte{5, 1, 2, 100, 100, 3, 50, 50, 20, 20}, uint8(1), uint16(5), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, tableSeed uint8, spec []byte, mask uint8, limit uint16, rate uint8, join uint8) {
		db := fuzzDB(t, tableSeed)
		q, h := fuzzQuery(db, spec, mask, limit, rate, join)
		res, stats, err := db.Run(q, h)
		want, wantStats, wantErr := referenceRun(db, q, h)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s: err = %v, reference %v", q.SQL(h), err, wantErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(res.RowIDs, want.RowIDs) || res.Truncated != want.Truncated {
			t.Fatalf("%s: %d rows (truncated %v), reference %d rows (truncated %v)",
				q.SQL(h), len(res.RowIDs), res.Truncated, len(want.RowIDs), want.Truncated)
		}
		if stats != wantStats {
			t.Fatalf("%s: stats %+v, reference %+v", q.SQL(h), stats, wantStats)
		}
	})
}

var fuzzDBs sync.Map // table seed class → *DB

// fuzzDB returns one of four cached test databases. Their sizes straddle the
// executor's scan chunk, so chunk boundaries and LIMIT stops inside a later
// chunk are both reached.
func fuzzDB(t *testing.T, seed uint8) *DB {
	k := seed % 4
	if db, ok := fuzzDBs.Load(k); ok {
		return db.(*DB)
	}
	db := buildTestDB(t, 700+700*int(k), int64(k)+1)
	db.Profile.HintDropProb = 0.3 // a dropped hint falls back to the optimizer's plan
	v, _ := fuzzDBs.LoadOrStore(k, db)
	return v.(*DB)
}

// fuzzQuery decodes one fuzz input into a query and hint. Bytes past the end
// of spec read as zero.
func fuzzQuery(db *DB, spec []byte, mask uint8, limit uint16, rate uint8, join uint8) (*Query, Hint) {
	next := func() float64 {
		if len(spec) == 0 {
			return 0
		}
		b := spec[0]
		spec = spec[1:]
		return float64(b)
	}
	q := &Query{Table: "events", OutputCols: []string{"loc"}, Limit: int(limit % 400)}
	n := 1 + int(next())%3
	for i := 0; i < n; i++ {
		var p Predicate
		switch int(next()) % 6 {
		case 0:
			p = Predicate{Col: "text", Kind: PredKeyword, Word: uint32(next()) % 56}
		case 1:
			p = Predicate{Col: "ts", Kind: PredRange, Lo: next() * 40, Hi: next() * 40}
		case 2:
			p = Predicate{Col: "val", Kind: PredRange, Lo: next() * 4, Hi: next() * 4}
		case 3:
			p = Predicate{Col: "loc", Kind: PredGeo, Box: Rect{
				MinLon: next() / 2.55, MinLat: next() / 5.1, MaxLon: next() / 2.55, MaxLat: next() / 5.1}}
		case 4:
			p = Predicate{Col: "fk", Kind: PredRange, Lo: next(), Hi: next()} // no index
		default:
			p = Predicate{Col: "ts", Kind: PredKind(7), Lo: 0, Hi: math.Inf(1)} // Eval rejects every row
		}
		q.Preds = append(q.Preds, p)
	}
	if rate > 0 {
		q.Approx = ApproxSpec{Method: ApproxRows, Rate: float64(rate) / 256}
	}
	if jm := JoinMethod(join % 4); jm != JoinAuto {
		jc := &JoinClause{Table: "dims", LeftCol: "fk", RightCol: "id"}
		for i := int(next()) % 3; i > 0; i-- {
			if int(next())%2 == 0 {
				jc.Preds = append(jc.Preds, Predicate{Col: "weight", Kind: PredRange, Lo: next() / 25.5, Hi: next() / 25.5})
			} else {
				jc.Preds = append(jc.Preds, Predicate{Col: "id", Kind: PredRange, Lo: next(), Hi: next()})
			}
		}
		q.Join = jc
		return q, ForcedHint(PositionsFromMask(uint32(mask), len(q.Preds)), jm)
	}
	if mask&0x80 != 0 {
		return q, Hint{} // the optimizer chooses
	}
	return q, ForcedHint(PositionsFromMask(uint32(mask), len(q.Preds)), JoinAuto)
}

// referenceRun is the executor before predicate binding: every predicate is
// evaluated with Predicate.Eval, row at a time, in query order, and posting
// lists are sorted with slices.Sort. It covers the plans fuzzQuery draws:
// base tables, exact and ApproxRows executions, and the three joins.
func referenceRun(db *DB, q *Query, h Hint) (*Result, ExecStats, error) {
	t, err := db.resolveTable(q)
	if err != nil {
		return nil, ExecStats{}, err
	}
	if err := q.Approx.validate(q); err != nil {
		return nil, ExecStats{}, err
	}
	positions, join, forced := h.UseIndex, h.Join, h.Forced
	if forced && db.Profile.HintDropProb > 0 {
		u := float64(mix64(uint64(db.Seed)^planFingerprint(q, positions, join))%100000) / 100000
		if u < db.Profile.HintDropProb {
			forced = false
		}
	}
	if !forced {
		pe := db.ChoosePlan(q)
		positions = pe.Positions
		if join == JoinAuto {
			join = pe.Join
		}
	}
	for _, pos := range positions {
		if pos < 0 || pos >= len(q.Preds) {
			return nil, ExecStats{}, fmt.Errorf("engine: hint position %d out of range (%d preds)", pos, len(q.Preds))
		}
		if t.Index(q.Preds[pos].Col) == nil {
			return nil, ExecStats{}, fmt.Errorf("engine: hint forces index on %q but none exists", q.Preds[pos].Col)
		}
	}
	var st ExecStats
	res := &Result{Weight: 1}
	sampling := q.Approx.Method == ApproxRows
	var seed, thresh uint64
	if sampling {
		res.Weight = 1 / q.Approx.Rate
		seed, thresh = q.Approx.effSeed(db.Seed, q), keepThreshold(q.Approx.Rate)
	}
	kept := func(r uint32) bool { return !sampling || keepRow(seed, r, thresh) }
	earlyLimit := q.Limit
	if q.Join != nil {
		earlyLimit = 0
	}
	var cand []uint32
	if len(positions) == 0 {
		for r := uint32(0); int(r) < t.Rows; r++ {
			if !kept(r) {
				continue
			}
			st.RowsScanned++
			if refEvalAll(t, q.Preds, r, nil, nil) {
				cand = append(cand, r)
				if earlyLimit > 0 && len(cand) >= earlyLimit {
					res.Truncated = true
					break
				}
			}
		}
	} else {
		var lists [][]uint32
		used := map[int]bool{}
		for _, pos := range positions {
			rows, entries, err := refLookup(t.Index(q.Preds[pos].Col), q.Preds[pos])
			if err != nil {
				return nil, ExecStats{}, err
			}
			st.IndexEntries += entries
			lists = append(lists, rows)
			used[pos] = true
		}
		slices.SortFunc(lists, func(a, b []uint32) int { return len(a) - len(b) })
		acc := lists[0]
		for _, l := range lists[1:] {
			var work int
			acc, work = IntersectSorted(acc, l)
			st.IntersectOps += work
		}
		for _, r := range acc {
			if !kept(r) {
				continue
			}
			st.RowsFetched++
			if refEvalAll(t, q.Preds, r, func(i int) bool { return used[i] }, &st.PredEvals) {
				cand = append(cand, r)
				if earlyLimit > 0 && len(cand) >= earlyLimit {
					res.Truncated = true
					break
				}
			}
		}
	}
	emit := func(r uint32) bool {
		res.RowIDs = append(res.RowIDs, r)
		if q.Limit > 0 && len(res.RowIDs) >= q.Limit {
			res.Truncated = true
			return true
		}
		return false
	}
	if q.Join == nil {
		for _, r := range cand {
			if emit(r) {
				break
			}
		}
	} else if err := refJoin(db, q, t, join, cand, &st, emit); err != nil {
		return nil, ExecStats{}, err
	}
	st.RowsOutput = len(res.RowIDs)
	st.SimMs = db.Profile.Cost.simMs(st, t.ScaleFactor)
	st.SimMs *= db.Profile.noiseFactor(db.Seed, planFingerprint(q, positions, join))
	return res, st, nil
}

// refEvalAll evaluates preds on row in query order, skipping the positions
// skip reports, and counts each evaluation into evals when it is not nil.
func refEvalAll(t *Table, preds []Predicate, row uint32, skip func(int) bool, evals *int) bool {
	for i, p := range preds {
		if skip != nil && skip(i) {
			continue
		}
		if evals != nil {
			*evals++
		}
		if !p.Eval(t, row) {
			return false
		}
	}
	return true
}

// refLookup is Index.Lookup with comparison-sorted posting lists.
func refLookup(ix *Index, p Predicate) ([]uint32, int, error) {
	switch {
	case ix.Kind == IndexBTree && p.Kind == PredRange:
		rows, entries := ix.btree.Range(p.Lo, p.Hi)
		slices.Sort(rows)
		return rows, entries, nil
	case ix.Kind == IndexRTree && p.Kind == PredGeo:
		rows, entries := ix.rtree.Search(p.Box)
		rows = slices.Clone(rows)
		slices.Sort(rows)
		return rows, entries, nil
	}
	return ix.Lookup(p) // inverted lists are stored sorted; mismatches error
}

// refJoin is the pre-cursor join: one materializing Range per probe with an
// early-exit match loop, and a row-at-a-time hash build.
func refJoin(db *DB, q *Query, t *Table, method JoinMethod, cand []uint32, st *ExecStats, emit func(uint32) bool) error {
	inner, ok := db.Tables[q.Join.Table]
	if !ok {
		return fmt.Errorf("engine: unknown join table %q", q.Join.Table)
	}
	leftKeys := t.Col(q.Join.LeftCol)
	probe := func(ix *Index, key float64) bool {
		rows, entries := ix.btree.Range(key, key)
		st.IndexEntries += entries
		for _, ir := range rows {
			if refEvalAll(inner, q.Join.Preds, ir, nil, &st.PredEvals) {
				return true
			}
		}
		return false
	}
	if method == JoinAuto {
		method = NestLoopJoin
	}
	switch method {
	case NestLoopJoin:
		ix := inner.Index(q.Join.RightCol)
		if ix == nil || ix.Kind != IndexBTree {
			return fmt.Errorf("engine: nest-loop join needs a btree index on %s.%s", inner.Name, q.Join.RightCol)
		}
		for _, lr := range cand {
			st.NestProbes++
			if probe(ix, leftKeys.NumericAt(lr)) && emit(lr) {
				return nil
			}
		}
	case HashJoin:
		keys := map[float64]bool{}
		innerKeys := inner.Col(q.Join.RightCol)
		for r := uint32(0); int(r) < inner.Rows; r++ {
			st.RowsScanned++
			if refEvalAll(inner, q.Join.Preds, r, nil, nil) {
				st.HashBuilds++
				keys[innerKeys.NumericAt(r)] = true
			}
		}
		for _, lr := range cand {
			st.HashProbes++
			if keys[leftKeys.NumericAt(lr)] && emit(lr) {
				return nil
			}
		}
	case MergeJoin:
		left := make([]joinKV, 0, len(cand))
		for _, lr := range cand {
			left = append(left, joinKV{leftKeys.NumericAt(lr), lr})
		}
		slices.SortFunc(left, func(a, b joinKV) int {
			switch {
			case a.key < b.key:
				return -1
			case a.key > b.key:
				return 1
			}
			return 0
		})
		if n := float64(len(left)); n > 1 {
			st.SortUnits += int(n * math.Log2(n))
		}
		ix := inner.Index(q.Join.RightCol)
		if ix == nil || ix.Kind != IndexBTree {
			return fmt.Errorf("engine: merge join needs a btree index on %s.%s", inner.Name, q.Join.RightCol)
		}
		for _, l := range left {
			if probe(ix, l.key) && emit(l.row) {
				return nil
			}
		}
	default:
		return fmt.Errorf("engine: unsupported join method %v", method)
	}
	return nil
}
