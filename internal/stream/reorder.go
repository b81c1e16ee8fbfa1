package stream

import "desh/internal/logparse"

// etItem is one buffered event, its time in Unix nanoseconds, and its
// arrival sequence number, which breaks timestamp ties so equal-time
// events release in arrival order — the property that makes reordered
// release deterministic.
type etItem struct {
	ev   logparse.EncodedEvent
	nano int64
	seq  uint64
}

// reorderHeap is a binary min-heap of buffered events ordered by
// (event time, arrival sequence). It is hand-rolled on a slice rather
// than container/heap to keep the hot path free of interface calls and
// per-push allocations; the zero value is ready.
type reorderHeap struct {
	items []etItem
}

func (h *reorderHeap) len() int { return len(h.items) }

// min returns the earliest buffered item; the heap must be non-empty.
func (h *reorderHeap) min() etItem { return h.items[0] }

func etLess(a, b etItem) bool {
	if a.nano != b.nano {
		return a.nano < b.nano
	}
	return a.seq < b.seq
}

func (h *reorderHeap) push(it etItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !etLess(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// pop removes and returns the earliest buffered item; the heap must be
// non-empty.
func (h *reorderHeap) pop() etItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = etItem{} // release the event for GC
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && etLess(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < len(h.items) && etLess(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
