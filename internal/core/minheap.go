package core

// heapEntry is an element a minHeap can order: a.before(b) reports
// whether a pops ahead of b. Every entry type here orders totally
// (distinct entries never tie), so the pop sequence is a function of
// the heap's contents alone, not of its internal layout.
type heapEntry[E any] interface {
	before(E) bool
}

// minHeap is a binary min-heap of plain values, ordered by the entry
// type's before method. Unlike container/heap it stores entries
// unboxed and dispatches no interface calls, so a push within capacity
// allocates nothing.
//
// The eviction heaps are lazily validated: a mutation pushes a fresh
// entry and leaves the old one to be skipped on pop. base is the
// heap's size after its last compaction; once the heap has grown past
// 2×base+heapSlack, due reports that its owner should drop the stale
// entries and call keep. Each compaction is O(n) and is preceded by
// at least base+heapSlack pushes, so it costs O(1) amortized per push.
type minHeap[E heapEntry[E]] struct {
	s    []E
	base int
}

// heapSlack keeps small heaps from compacting on every push.
const heapSlack = 64

func (h *minHeap[E]) len() int { return len(h.s) }

// due reports whether the heap outgrew its last compaction.
func (h *minHeap[E]) due() bool { return len(h.s) > 2*h.base+heapSlack }

//jenga:hotpath
func (h *minHeap[E]) push(e E) {
	h.s = append(h.s, e)
	h.up(len(h.s) - 1)
}

// pop removes and returns the minimum entry; the heap must be
// non-empty.
//
//jenga:hotpath
func (h *minHeap[E]) pop() E {
	n := len(h.s) - 1
	top := h.s[0]
	h.s[0] = h.s[n]
	h.s = h.s[:n]
	h.down(0)
	return top
}

// replaceTop overwrites the minimum entry with e and restores order —
// the bounded top-k step (OffloadOrder).
func (h *minHeap[E]) replaceTop(e E) {
	h.s[0] = e
	h.down(0)
}

func (h *minHeap[E]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.s[i].before(h.s[p]) {
			return
		}
		h.s[i], h.s[p] = h.s[p], h.s[i]
		i = p
	}
}

func (h *minHeap[E]) down(i int) {
	n := len(h.s)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.s[r].before(h.s[c]) {
			c = r
		}
		if !h.s[c].before(h.s[i]) {
			return
		}
		h.s[i], h.s[c] = h.s[c], h.s[i]
		i = c
	}
}

// keep finishes a compaction: the owner has moved the n entries it
// keeps to the front of s; keep truncates to them and restores heap
// order in O(n).
func (h *minHeap[E]) keep(n int) {
	h.s = h.s[:n]
	h.base = n
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}
