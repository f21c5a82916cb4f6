package pgc

import (
	"espresso/internal/layout"
	"espresso/internal/pheap"
)

// Rooter supplies the collector with roots that live outside the heap
// image: DRAM slots (volatile-heap fields, runtime handles) holding
// references into the persistent heap. The name-table roots are handled
// by the collector itself.
type Rooter interface {
	// Roots calls visit with every candidate external root reference.
	// Non-heap values are ignored by the collector.
	Roots(visit func(layout.Ref))
	// UpdateRoots applies the forwarding function to every external slot
	// and stores the result back, after compaction has moved objects.
	UpdateRoots(fwd func(layout.Ref) layout.Ref)
}

// NoRoots is the Rooter for a heap with no live DRAM references — the
// situation during recovery, when the previous process's DRAM is gone.
type NoRoots struct{}

// Roots is a no-op: there are no external roots.
func (NoRoots) Roots(func(layout.Ref)) {}

// UpdateRoots is a no-op: there are no external slots to patch.
func (NoRoots) UpdateRoots(func(layout.Ref) layout.Ref) {}

// heapRoots collects the snapshot root set: name-table roots plus ext's
// roots, filtered to references into h. Collect captures it at the
// initial handshake, with the world stopped.
func heapRoots(h *pheap.Heap, ext Rooter) []layout.Ref {
	var roots []layout.Ref
	add := func(ref layout.Ref) {
		if ref != layout.NullRef && h.Contains(ref) {
			roots = append(roots, ref)
		}
	}
	for _, r := range h.Roots() {
		add(r.Ref)
	}
	if ext != nil {
		ext.Roots(add)
	}
	return roots
}
