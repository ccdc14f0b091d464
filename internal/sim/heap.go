package sim

// ReadyHeap is a binary min-heap of (cycle, id) pairs used by the engine
// to pick the next core to step. Ties on cycle break on the lower id so
// simulations are deterministic.
type ReadyHeap struct {
	items []readyItem
}

type readyItem struct {
	at Cycles
	id int
}

// Len reports the number of queued entries.
func (h *ReadyHeap) Len() int { return len(h.items) }

// Push queues id to become ready at cycle at.
func (h *ReadyHeap) Push(at Cycles, id int) {
	h.items = append(h.items, readyItem{at, id})
	h.up(len(h.items) - 1)
}

// Pop removes and returns the entry with the smallest (cycle, id).
// It panics on an empty heap.
func (h *ReadyHeap) Pop() (at Cycles, id int) {
	if len(h.items) == 0 {
		panic("sim: Pop on empty ReadyHeap")
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top.at, top.id
}

// Peek returns the smallest entry without removing it.
func (h *ReadyHeap) Peek() (at Cycles, id int, ok bool) {
	if len(h.items) == 0 {
		return 0, 0, false
	}
	return h.items[0].at, h.items[0].id, true
}

func (h *ReadyHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

func (h *ReadyHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *ReadyHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}
