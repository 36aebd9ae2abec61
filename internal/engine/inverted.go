package engine

import (
	"math/bits"
	"slices"
	"sync"
)

// InvertedIndex maps word ids to sorted posting lists of row ids, the access
// path behind "Content contains <keyword>" predicates.
type InvertedIndex struct {
	postings map[uint32][]uint32
	entries  int // total number of postings
}

// NewInvertedIndex builds the index from a tokenized text column.
func NewInvertedIndex(texts [][]uint32) *InvertedIndex {
	idx := &InvertedIndex{postings: make(map[uint32][]uint32)}
	for row, tokens := range texts {
		for _, w := range tokens {
			idx.postings[w] = append(idx.postings[w], uint32(row))
		}
		idx.entries += len(tokens)
	}
	return idx
}

// AppendRow indexes one new row's tokens. Rows must be appended in
// increasing row-id order (the ingest path appends at the table tail), which
// preserves the sorted-posting-list invariant without re-sorting.
func (idx *InvertedIndex) AppendRow(row uint32, tokens []uint32) {
	for _, w := range tokens {
		idx.postings[w] = append(idx.postings[w], row)
	}
	idx.entries += len(tokens)
}

// Lookup returns the sorted posting list for word (shared, do not mutate)
// and the number of entries scanned. Rows are appended in row order during
// construction, so lists are already sorted.
func (idx *InvertedIndex) Lookup(word uint32) (rows []uint32, entries int) {
	p := idx.postings[word]
	return p, len(p) + 1
}

// PostingLen returns the length of word's posting list.
func (idx *InvertedIndex) PostingLen(word uint32) int {
	return len(idx.postings[word])
}

// Len returns the total number of postings across all words.
func (idx *InvertedIndex) Len() int { return idx.entries }

// DistinctWords returns the number of distinct indexed words.
func (idx *InvertedIndex) DistinctWords() int { return len(idx.postings) }

// AvgPostingLen returns the average posting-list length — the (deliberately
// crude) statistic the optimizer uses to estimate keyword selectivity.
func (idx *InvertedIndex) AvgPostingLen() float64 {
	if len(idx.postings) == 0 {
		return 0
	}
	return float64(idx.entries) / float64(len(idx.postings))
}

// IntersectSorted intersects two sorted uint32 slices, returning the result
// and the number of comparisons performed (for costing).
func IntersectSorted(a, b []uint32) (out []uint32, work int) {
	return intersectSortedInto(nil, a, b)
}

// intersectSortedInto is IntersectSorted appending into dst (typically a
// reused scratch buffer with length 0). dst must not alias a or b.
func intersectSortedInto(dst, a, b []uint32) (out []uint32, work int) {
	out = dst
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		work++
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out, work
}

// Posting sort. B-tree range scans return row ids in key order and R-tree
// searches in tree order, but every posting-list consumer (intersection, the
// residual fetch, reservoir sampling) needs ascending row ids. A bitmap over
// the result's id span sorts in O(n + span/64) where a comparison sort pays
// O(n log n), so it wins whenever the result is not much sparser than its
// span, which index scans over a table usually are not.
const (
	// bitmapSortMinRows: smaller results comparison-sort, which is cheap
	// at that size.
	bitmapSortMinRows = 64
	// bitmapSortMaxWordsPerRow bounds the span: a result sparser than one
	// row per this many 64-bit words comparison-sorts instead.
	bitmapSortMaxWordsPerRow = 8
)

// bitmapPool recycles sortPostings' bitmaps. A pooled bitmap is all zero;
// its length tracks the largest id span sorted so far.
var bitmapPool = sync.Pool{New: func() any { return new([]uint64) }}

// useBitmapSort reports whether sortPostings takes the bitmap path for n
// rows spanning ids [lo, hi].
func useBitmapSort(n int, lo, hi uint32) bool {
	return n >= bitmapSortMinRows && int((hi-lo)>>6)+1 <= bitmapSortMaxWordsPerRow*n
}

// sortPostings sorts row ids ascending in place, with the same result as
// slices.Sort. The bitmap path needs unique ids, which every index yields;
// a duplicate falls back to slices.Sort rather than being dropped.
func sortPostings(rows []uint32) {
	if len(rows) < bitmapSortMinRows {
		slices.Sort(rows)
		return
	}
	lo, hi := rows[0], rows[0]
	for _, r := range rows[1:] {
		lo = min(lo, r)
		hi = max(hi, r)
	}
	if !useBitmapSort(len(rows), lo, hi) {
		slices.Sort(rows)
		return
	}
	words := int((hi-lo)>>6) + 1
	bp := bitmapPool.Get().(*[]uint64)
	if cap(*bp) < words {
		*bp = make([]uint64, words)
	}
	bm := (*bp)[:words]
	defer bitmapPool.Put(bp)
	for _, r := range rows {
		off := r - lo
		w, bit := off>>6, uint64(1)<<(off&63)
		if bm[w]&bit != 0 {
			clear(bm)
			slices.Sort(rows)
			return
		}
		bm[w] |= bit
	}
	i := 0
	for w, word := range bm {
		if word == 0 {
			continue
		}
		bm[w] = 0
		base := lo + uint32(w)<<6
		for ; word != 0; word &= word - 1 {
			rows[i] = base + uint32(bits.TrailingZeros64(word))
			i++
		}
	}
}
