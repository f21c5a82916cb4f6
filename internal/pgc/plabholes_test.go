package pgc

import (
	"sync"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
)

// TestHoleRefillConcurrentWithAdjacentFlush regression-tests the
// line-aligned hole protocol: a collection leaves recycled holes
// flush-adjacent to live objects, and mutators refilling those holes
// must never touch a cache line that another thread concurrently
// flushes (FlushRange on the survivors). Run under -race — the race
// detector is the oracle for the disjoint-line contract.
func TestHoleRefillConcurrentWithAdjacentFlush(t *testing.T) {
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{DataSize: 8 << 20, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	node, err := reg.Define(klass.MustInstance("hole/Node", nil,
		klass.Field{Name: "next", Type: layout.FTRef},
		klass.Field{Name: "pad", Type: layout.FTLong},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Interleave keepers and garbage so compaction leaves live objects
	// directly before recycled gaps.
	var prev layout.Ref
	for i := 0; i < 2000; i++ {
		if _, err := h.Alloc(node, 0); err != nil { // garbage
			t.Fatal(err)
		}
		ref, err := h.Alloc(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		h.SetWord(ref, layout.FieldOff(0), uint64(prev))
		prev = ref
	}
	if err := h.SetRoot("chain", prev); err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(h, NoRoots{}, nil, 1); err != nil {
		t.Fatal(err)
	}

	// Collect the post-GC survivor addresses for the flusher lanes.
	var live []layout.Ref
	if err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if !pheap.IsFiller(k) {
			live = append(live, h.AddrOf(off))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 {
		t.Fatal("no survivors")
	}

	size := node.SizeOf(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				// Refill lane: consumes the collector's recycled holes.
				a := h.NewAllocator()
				defer a.Release()
				for i := 0; i < 800; i++ {
					if _, err := a.Alloc(node, 0); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				}
				return
			}
			// Flush lane: persists live objects adjacent to the holes.
			for i := 0; i < 800; i++ {
				h.FlushRange(live[(i*7+g)%len(live)], 0, size)
			}
		}(g)
	}
	wg.Wait()
	if err := h.ForEachObject(func(int, *klass.Klass, int) bool { return true }); err != nil {
		t.Fatalf("heap does not parse after concurrent hole refill: %v", err)
	}
}
