package engine

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestSortPostingsMatchesSlicesSort: the bitmap sort and its comparison-sort
// fallback give slices.Sort's result for every size and density, including
// the duplicate ids no index produces.
func TestSortPostingsMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		n, span int
		dups    bool
	}{
		{0, 1, false}, {1, 1, false}, {1, 1 << 20, false},
		{bitmapSortMinRows - 1, 500, false}, {bitmapSortMinRows, bitmapSortMinRows, false},
		{200, 300, false}, {1000, 1000, false}, {1000, 40_000, false},
		{1000, 1 << 20, false}, // too sparse: comparison sort
		{5000, 20_000, true}, {64, 64, true},
	} {
		ids := rng.Perm(tc.span)[:tc.n]
		rows := make([]uint32, tc.n)
		for i, id := range ids {
			rows[i] = uint32(id) + 7_000 // a span not starting at 0
		}
		if tc.dups && tc.n > 1 {
			rows[tc.n-1] = rows[0]
		}
		want := slices.Clone(rows)
		slices.Sort(want)
		sortPostings(rows)
		if !slices.Equal(rows, want) {
			t.Errorf("n=%d span=%d dups=%v: bitmap sort differs from slices.Sort", tc.n, tc.span, tc.dups)
		}
	}
	// The pooled bitmap must come back zeroed, also after a duplicate
	// aborted the bitmap pass halfway (the same goroutine at GOMAXPROCS 1
	// gets back the bitmap it just returned).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dup := []uint32{70, 71, 70}
	for r := uint32(200); r < 261; r++ {
		dup = append(dup, r)
	}
	sortPostings(append(dup, 3))
	bp := bitmapPool.Get().(*[]uint64)
	if i := slices.IndexFunc((*bp)[:cap(*bp)], func(w uint64) bool { return w != 0 }); i >= 0 {
		t.Errorf("pooled bitmap word %d = %#x after an aborted pass, want 0", i, (*bp)[i])
	}
	bitmapPool.Put(bp)
}

// TestIndexLookupPostingsSorted: Index.Lookup on every index kind returns
// exactly the ascending row ids a brute-force scan finds, with B-tree entry
// counts equal to Range's, for bulk-built indexes and for indexes grown by
// ApplyBatch ingest — empty and single-row results included.
func TestIndexLookupPostingsSorted(t *testing.T) {
	bulk := buildTestDB(t, 3_000, 43)
	grown := buildTestDB(t, 800, 44)
	for i := range 4 {
		if _, err := grown.ApplyBatch("events", ingestBatch(t, 300+int64(i), 611), time.Unix(1700000000+int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	for name, db := range map[string]*DB{"bulk": bulk, "ingested": grown} {
		tb := db.Table("events")
		loc, val := tb.Col("loc").Points, tb.Col("val").Floats
		preds := []Predicate{
			{Col: "ts", Kind: PredRange, Lo: 2000, Hi: 7000},
			{Col: "ts", Kind: PredRange, Lo: 0, Hi: 1e9},
			{Col: "ts", Kind: PredRange, Lo: 5, Hi: 4},              // inverted: empty
			{Col: "val", Kind: PredRange, Lo: val[17], Hi: val[17]}, // one row
			{Col: "val", Kind: PredRange, Lo: 100, Hi: 130},
			{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: 10, MinLat: 5, MaxLon: 90, MaxLat: 45}},
			{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: 40, MinLat: 20, MaxLon: 44, MaxLat: 23}},
			{Col: "loc", Kind: PredGeo, Box: PointRect(loc[tb.Rows-1])}, // one (ingested) row
			{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: 200, MinLat: 200, MaxLon: 300, MaxLat: 300}},
			{Col: "text", Kind: PredKeyword, Word: 3},
			{Col: "text", Kind: PredKeyword, Word: 999}, // absent word
		}
		for _, p := range preds {
			ix := tb.Index(p.Col)
			rows, entries, err := ix.Lookup(p)
			if err != nil {
				t.Fatal(err)
			}
			var want []uint32
			for r := uint32(0); int(r) < tb.Rows; r++ {
				if p.Eval(tb, r) {
					want = append(want, r)
				}
			}
			if !slices.Equal(rows, want) {
				t.Errorf("%s %s: %d rows, brute force %d (or order differs)", name, p, len(rows), len(want))
			}
			if ix.Kind == IndexBTree {
				if _, wantEntries := ix.btree.Range(p.Lo, p.Hi); entries != wantEntries {
					t.Errorf("%s %s: entries %d, Range %d", name, p, entries, wantEntries)
				}
			}
		}
	}
}
