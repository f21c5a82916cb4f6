package pgc

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pgc/concurrent"
	"espresso/internal/pheap"
)

// The test graph class: Node { id long; next ref; other ref }.
const (
	fID    = 0
	fNext  = 1
	fOther = 2
)

func nodeKlass(reg *klass.Registry) *klass.Klass {
	k, err := reg.Define(klass.MustInstance("Node", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "Node"},
		klass.Field{Name: "other", Type: layout.FTRef, RefKlass: "Node"},
	))
	if err != nil {
		panic(err)
	}
	return k
}

// model describes the intended object graph by stable node ids.
type model struct {
	next  map[uint64]uint64 // id → id of next (0 = null)
	other map[uint64]uint64
	roots map[string]uint64 // root name → id
}

// buildGraph allocates n nodes with random links and nRoots named roots,
// deterministically from seed. Unrooted subgraphs become garbage.
func buildGraph(t testing.TB, h *pheap.Heap, reg *klass.Registry, seed int64, n, nRoots int) *model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	node := nodeKlass(reg)
	refs := make([]layout.Ref, n)
	m := &model{next: map[uint64]uint64{}, other: map[uint64]uint64{}, roots: map[string]uint64{}}
	for i := range refs {
		ref, err := h.Alloc(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
		h.SetWord(ref, layout.FieldOff(fID), uint64(i+1))
	}
	link := func(from int, field int, tgt map[uint64]uint64) {
		to := rng.Intn(n + 1) // n means null
		var toRef layout.Ref
		var toID uint64
		if to < n {
			toRef = refs[to]
			toID = uint64(to + 1)
		}
		h.SetWord(refs[from], layout.FieldOff(field), uint64(toRef))
		tgt[uint64(from+1)] = toID
	}
	for i := 0; i < n; i++ {
		link(i, fNext, m.next)
		link(i, fOther, m.other)
	}
	for r := 0; r < nRoots; r++ {
		i := rng.Intn(n)
		name := fmt.Sprintf("root%d", r)
		if err := h.SetRoot(name, refs[i]); err != nil {
			t.Fatal(err)
		}
		m.roots[name] = uint64(i + 1)
	}
	// Persist object payloads the way an application would before relying
	// on them across a crash.
	h.Device().Flush(h.Geo().DataOff, h.Top()-h.Geo().DataOff)
	h.Device().Fence()
	return m
}

// reachable computes the ids reachable from the model's roots.
func (m *model) reachable() map[uint64]bool {
	seen := map[uint64]bool{}
	var visit func(id uint64)
	visit = func(id uint64) {
		if id == 0 || seen[id] {
			return
		}
		seen[id] = true
		visit(m.next[id])
		visit(m.other[id])
	}
	for _, id := range m.roots {
		visit(id)
	}
	return seen
}

// verifyGraph checks that the heap's reachable graph matches the model
// exactly: same roots, same edges, same reachable node count, and that the
// whole heap below top parses.
func verifyGraph(t testing.TB, h *pheap.Heap, m *model) {
	t.Helper()
	idOf := func(ref layout.Ref) uint64 {
		if ref == layout.NullRef {
			return 0
		}
		return h.GetWord(ref, layout.FieldOff(fID))
	}
	seen := map[uint64]bool{}
	var stack []layout.Ref
	for name, wantID := range m.roots {
		ref, ok := h.GetRoot(name)
		if !ok {
			t.Fatalf("root %s missing", name)
		}
		if got := idOf(ref); got != wantID {
			t.Fatalf("root %s points at node %d, want %d", name, got, wantID)
		}
		stack = append(stack, ref)
	}
	for len(stack) > 0 {
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id := idOf(ref)
		if seen[id] {
			continue
		}
		seen[id] = true
		k, err := h.KlassOf(ref)
		if err != nil || k.Name != "Node" {
			t.Fatalf("node %d: klass %v err %v", id, k, err)
		}
		next := layout.Ref(h.GetWord(ref, layout.FieldOff(fNext)))
		other := layout.Ref(h.GetWord(ref, layout.FieldOff(fOther)))
		if got := idOf(next); got != m.next[id] {
			t.Fatalf("node %d: next = %d, want %d", id, got, m.next[id])
		}
		if got := idOf(other); got != m.other[id] {
			t.Fatalf("node %d: other = %d, want %d", id, got, m.other[id])
		}
		if next != 0 && !seen[idOf(next)] {
			stack = append(stack, next)
		}
		if other != 0 && !seen[idOf(other)] {
			stack = append(stack, other)
		}
	}
	want := m.reachable()
	if len(seen) != len(want) {
		t.Fatalf("reachable %d nodes, want %d", len(seen), len(want))
	}
	if err := h.ForEachObject(func(int, *klass.Klass, int) bool { return true }); err != nil {
		t.Fatalf("post-GC heap does not parse: %v", err)
	}
}

// markLive runs the collector's tracer alone, leaving h's mark bitmap
// describing the live set — the input Summarize plans from.
func markLive(t testing.TB, h *pheap.Heap) {
	t.Helper()
	h.MarkBitmap().ClearAll()
	if err := concurrent.NewMarker(h, h.SnapshotRegionTops(), 1).MarkRoots(heapRoots(h, NoRoots{})); err != nil {
		t.Fatal(err)
	}
}

func newHeap(t testing.TB, dataSize int) (*pheap.Heap, *klass.Registry) {
	t.Helper()
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{DataSize: dataSize, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	return h, reg
}

func TestCollectPreservesGraphAndReclaims(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	m := buildGraph(t, h, reg, 42, 500, 5)
	freeBefore := h.FreeBytes()
	res, err := Collect(h, NoRoots{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != len(m.reachable()) {
		t.Fatalf("live = %d, want %d", res.LiveObjects, len(m.reachable()))
	}
	if h.FreeBytes() < freeBefore {
		t.Fatalf("no space reclaimed: free %d → %d", freeBefore, h.FreeBytes())
	}
	if h.GCActive() {
		t.Fatal("gcActive left set")
	}
	verifyGraph(t, h, m)
}

func TestCollectEmptyHeap(t *testing.T) {
	h, _ := newHeap(t, 1<<20)
	res, err := Collect(h, NoRoots{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != 0 || h.Top() != h.Geo().DataOff {
		t.Fatalf("empty collect: %+v top=%d", res, h.Top())
	}
}

func TestCollectAllGarbage(t *testing.T) {
	h, reg := newHeap(t, 2<<20)
	node := nodeKlass(reg)
	for i := 0; i < 1000; i++ {
		if _, err := h.Alloc(node, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Collect(h, NoRoots{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != 0 {
		t.Fatalf("live = %d, want 0", res.LiveObjects)
	}
	if h.Top() != h.Geo().DataOff {
		t.Fatalf("top = %d, want reset to %d", h.Top(), h.Geo().DataOff)
	}
	// Space is reusable.
	if _, err := h.Alloc(node, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryIdempotent(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	buildGarbageBelt(t, h, reg, 150) // past the dead-wood budget: real moves
	buildGraph(t, h, reg, 7, 300, 4)
	markLive(t, h)
	h.MarkBitmap().Persist()
	s1, err := Summarize(h)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Summarize(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Moves) != len(s2.Moves) || s1.NewTop != s2.NewTop {
		t.Fatalf("summary not deterministic: %d/%d moves, top %d/%d",
			len(s1.Moves), len(s2.Moves), s1.NewTop, s2.NewTop)
	}
	for i := range s1.Moves {
		if s1.Moves[i] != s2.Moves[i] {
			t.Fatalf("move %d differs: %+v vs %+v", i, s1.Moves[i], s2.Moves[i])
		}
	}
}

func TestSummaryInvariants(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	buildGarbageBelt(t, h, reg, 200) // past the dead-wood budget: real moves
	buildGraph(t, h, reg, 11, 400, 3)
	markLive(t, h)
	s, err := Summarize(h)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, mv := range s.Moves {
		if mv.Dst != mv.Src {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no evacuations; the invariants below are vacuous")
	}
	checkSummaryInvariants(t, h, s)
}

// checkSummaryInvariants asserts the placement rules the compactor's
// source-as-undo-log protocol relies on: moves ascend by source, no
// ordinary object is placed across a region boundary or inside its own
// source region, and final extents never overlap.
func checkSummaryInvariants(t *testing.T, h *pheap.Heap, s *Summary) {
	t.Helper()
	regionOf := func(off int) int { return (off - h.Geo().DataOff) / layout.RegionSize }
	for i, mv := range s.Moves {
		if i > 0 && mv.Src <= s.Moves[i-1].Src {
			t.Fatal("moves not ascending by src")
		}
		if mv.Dst == mv.Src {
			continue
		}
		if regionOf(mv.Dst) != regionOf(mv.Dst+mv.Size-1) {
			t.Fatalf("move %d %+v: destination straddles a region boundary", i, mv)
		}
		if regionOf(mv.Src) == regionOf(mv.Dst) {
			t.Fatalf("move %d %+v: destination in its own source region", i, mv)
		}
	}
	prevEnd := -1
	for _, mv := range sortedByDst(s.Moves) {
		if mv.Dst < prevEnd {
			t.Fatalf("overlapping destinations at %d", mv.Dst)
		}
		prevEnd = mv.Dst + mv.Size
	}
}

// TestSummaryPlacementRandomLayouts checks the placement invariants over
// random mark bitmaps built region by region: dense regions packed to
// within a sliver of their end (the tails repeated collections under
// index deletes leave, too small for the next object), sparse and empty
// regions that push the dense prefix's dead-wood budget over so later
// objects move, and pinned humongous objects whose tail regions hold
// ordinary objects. The summary reads the bitmap alone, so the layouts
// are written straight into it.
func TestSummaryPlacementRandomLayouts(t *testing.T) {
	const regions = 8
	h, reg := newHeap(t, regions*layout.RegionSize)
	node := nodeKlass(reg)
	for { // push every region top to its end so the whole bitmap is scanned
		if _, err := h.Alloc(node, 0); err != nil {
			break
		}
	}
	geo := h.Geo()
	bm := h.MarkBitmap()
	moved := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		words := func(lo, hi int) int { return (lo + rng.Intn(hi-lo+1)) * layout.WordSize }
		setLive := func(off, size int) {
			bm.Set((off - geo.DataOff) / layout.WordSize)
			bm.Set((off-geo.DataOff+size)/layout.WordSize - 1)
		}
		// fill lays out [off, end): densely packed live objects up to a
		// sliver, or live objects scattered through garbage.
		fill := func(off, end int, dense bool) {
			if dense {
				end -= words(0, 5)
			}
			for off+2*layout.WordSize <= end {
				size := min(words(2, 64), end-off)
				if dense || rng.Intn(20) == 0 {
					setLive(off, size)
				} else {
					size = min(words(64, 4096), end-off)
				}
				off += size
			}
		}
		bm.ClearAll()
		for r := 0; r < regions; r++ {
			start := geo.DataOff + r*layout.RegionSize
			switch p := rng.Intn(10); {
			case p < 1 && r+1 < regions: // humongous, its tail shared
				size := pheap.HugeThreshold + words(1, layout.RegionSize/layout.WordSize)
				setLive(start, size)
				r = (start + size - geo.DataOff) / layout.RegionSize
				fill(start+size, geo.DataOff+(r+1)*layout.RegionSize, rng.Intn(2) == 0)
			case p < 2: // empty
			default:
				fill(start, start+layout.RegionSize, p < 6)
			}
		}
		s, err := Summarize(h)
		if errors.Is(err, ErrNoSpaceToCompact) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		moved += s.MovedObjects
		checkSummaryInvariants(t, h, s)
	}
	if moved == 0 {
		t.Fatal("no layout moved anything; the invariants are vacuous")
	}
}

func sortedByDst(moves []Move) []Move {
	out := append([]Move(nil), moves...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Dst < out[j-1].Dst; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestRepeatedCollections(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	m := buildGraph(t, h, reg, 13, 400, 4)
	for i := 0; i < 4; i++ {
		if _, err := Collect(h, NoRoots{}, nil, 1); err != nil {
			t.Fatalf("collection %d: %v", i, err)
		}
		verifyGraph(t, h, m)
	}
}

func TestAllocateAfterCollect(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	m := buildGraph(t, h, reg, 17, 300, 3)
	if _, err := Collect(h, NoRoots{}, nil, 1); err != nil {
		t.Fatal(err)
	}
	node := reg.MustLookup("Node")
	for i := 0; i < 200; i++ {
		if _, err := h.Alloc(node, 0); err != nil {
			t.Fatal(err)
		}
	}
	verifyGraph(t, h, m)
	if _, err := Collect(h, NoRoots{}, nil, 1); err != nil {
		t.Fatal(err)
	}
	verifyGraph(t, h, m)
}

// sliceRooter exposes a DRAM slot slice as GC roots.
type sliceRooter struct{ slots []layout.Ref }

func (r *sliceRooter) Roots(visit func(layout.Ref)) {
	for _, s := range r.slots {
		visit(s)
	}
}

func (r *sliceRooter) UpdateRoots(fwd func(layout.Ref) layout.Ref) {
	for i, s := range r.slots {
		r.slots[i] = fwd(s)
	}
}

func TestExternalRootsKeepAliveAndGetUpdated(t *testing.T) {
	h, reg := newHeap(t, 2<<20)
	node := nodeKlass(reg)
	// Garbage in front so live objects must move.
	for i := 0; i < 100; i++ {
		if _, err := h.Alloc(node, 0); err != nil {
			t.Fatal(err)
		}
	}
	ref, _ := h.Alloc(node, 0)
	h.SetWord(ref, layout.FieldOff(fID), 777)
	h.FlushRange(ref, 0, node.SizeOf(0))
	ext := &sliceRooter{slots: []layout.Ref{ref}}
	res, err := Collect(h, ext, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != 1 {
		t.Fatalf("live = %d, want 1 (external root)", res.LiveObjects)
	}
	if ext.slots[0] == ref {
		t.Fatal("external slot not forwarded (object should have moved)")
	}
	if got := h.GetWord(ext.slots[0], layout.FieldOff(fID)); got != 777 {
		t.Fatalf("payload after move = %d", got)
	}
}

func TestHumongousPinnedByGC(t *testing.T) {
	h, reg := newHeap(t, 8<<20)
	node := nodeKlass(reg)
	// garbage, then a humongous array, then more garbage
	for i := 0; i < 50; i++ {
		h.Alloc(node, 0)
	}
	huge, err := h.Alloc(reg.PrimArray(layout.FTLong), pheap.HugeThreshold/8+100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		h.Alloc(node, 0)
	}
	keep, _ := h.Alloc(node, 0)
	h.SetRoot("huge", huge)
	h.SetRoot("keep", keep)
	h.Device().FlushAll()
	if _, err := Collect(h, NoRoots{}, nil, 1); err != nil {
		t.Fatal(err)
	}
	got, _ := h.GetRoot("huge")
	if got != huge {
		t.Fatalf("humongous object moved: %#x → %#x", uint64(huge), uint64(got))
	}
	if err := h.ForEachObject(func(int, *klass.Klass, int) bool { return true }); err != nil {
		t.Fatalf("heap with pinned object does not parse: %v", err)
	}
}

func TestRecoverNoopOnCleanHeap(t *testing.T) {
	h, _ := newHeap(t, 1<<20)
	res, err := Recover(h)
	if err != nil || res.Recovered {
		t.Fatalf("recover on clean heap: %+v %v", res, err)
	}
}

// TestCrashDuringGCAtEveryFlush is the central crash-consistency test:
// build a graph, start a collection, crash it at the k-th device flush for
// every k, reload the image, run recovery, and verify the object graph is
// bit-for-bit intact. The crash image keeps a random subset of unflushed
// lines (CrashRandomEviction) to model arbitrary cache eviction.
func TestCrashDuringGCAtEveryFlush(t *testing.T) {
	const seed = 99
	// First, a clean run to count flushes. The garbage belt keeps the
	// workload past the dead-wood budget so the sweep crosses the full
	// evacuation protocol, not just fixes and fillers.
	h0, reg0 := newHeap(t, 2<<20)
	buildGarbageBelt(t, h0, reg0, 120)
	m := buildGraph(t, h0, reg0, seed, 120, 4)
	base := h0.Device().Stats().Flushes
	if res, err := Collect(h0, NoRoots{}, nil, 1); err != nil {
		t.Fatal(err)
	} else if res.MovedObjects == 0 {
		t.Fatal("workload compacted nothing; the sweep misses the move protocol")
	}
	totalFlushes := h0.Device().Stats().Flushes - base
	if totalFlushes < 20 {
		t.Fatalf("suspiciously few flushes in a full GC: %d", totalFlushes)
	}

	// Snapshot a pristine pre-GC image to restart from each iteration.
	hSnap, regSnap := newHeap(t, 2<<20)
	buildGarbageBelt(t, hSnap, regSnap, 120)
	buildGraph(t, hSnap, regSnap, seed, 120, 4)
	hSnap.Device().FlushAll()
	pristine := hSnap.Device().CrashImage(nvm.CrashFlushedOnly, 0)

	step := uint64(1)
	if totalFlushes > 400 {
		step = totalFlushes / 400
	}
	for k := uint64(1); k <= totalFlushes; k += step {
		img := make([]byte, len(pristine))
		copy(img, pristine)
		dev := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
		h, err := pheap.Load(dev, klass.NewRegistry())
		if err != nil {
			t.Fatalf("k=%d: load pristine: %v", k, err)
		}
		faultdev.CrashIn(dev, k)
		crashed, err := faultdev.Run(dev, func() error {
			_, err := Collect(h, NoRoots{}, nil, 1)
			return err
		})
		if err != nil {
			t.Fatalf("k=%d: collect: %v", k, err)
		}

		// Power loss: arbitrary subset of dirty lines survives.
		after := nvm.FromImage(dev.CrashImage(nvm.CrashRandomEviction, int64(k)), nvm.Config{Mode: nvm.Tracked})
		h2, err := pheap.Load(after, klass.NewRegistry())
		if err != nil {
			t.Fatalf("k=%d: reload: %v", k, err)
		}
		if _, err := Recover(h2); err != nil {
			t.Fatalf("k=%d: recover: %v", k, err)
		}
		if h2.GCActive() {
			t.Fatalf("k=%d: gcActive after recovery", k)
		}
		verifyGraph(t, h2, m)
		if !crashed {
			break // k beyond the GC's flush count: clean finish
		}
	}
}

// TestCrashDuringRecoveryItself crashes recovery at several points and
// re-recovers; recovery must be idempotent.
func TestCrashDuringRecoveryItself(t *testing.T) {
	const seed = 123
	// Build and crash a GC mid-compact.
	h, reg := newHeap(t, 2<<20)
	m := buildGraph(t, h, reg, seed, 100, 3)
	faultdev.CrashIn(h.Device(), 40)
	if _, err := faultdev.Run(h.Device(), func() error {
		_, err := Collect(h, NoRoots{}, nil, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	crashImg := h.Device().CrashImage(nvm.CrashRandomEviction, 1)

	for k := uint64(1); k < 60; k += 3 {
		img := make([]byte, len(crashImg))
		copy(img, crashImg)
		dev := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
		h2, err := pheap.Load(dev, klass.NewRegistry())
		if err != nil {
			t.Fatalf("k=%d: load: %v", k, err)
		}
		faultdev.CrashIn(dev, k)
		if _, err := faultdev.Run(dev, func() error {
			_, err := Recover(h2)
			return err
		}); err != nil {
			t.Fatalf("k=%d: recover: %v", k, err)
		}

		dev2 := nvm.FromImage(dev.CrashImage(nvm.CrashRandomEviction, int64(k)), nvm.Config{Mode: nvm.Tracked})
		h3, err := pheap.Load(dev2, klass.NewRegistry())
		if err != nil {
			t.Fatalf("k=%d: second load: %v", k, err)
		}
		if _, err := Recover(h3); err != nil {
			t.Fatalf("k=%d: second recover: %v", k, err)
		}
		verifyGraph(t, h3, m)
	}
}

func TestGCFlushOverheadMeasurable(t *testing.T) {
	// The §6.4 experiment's mechanism: the same GC with flushes disabled
	// performs the same moves but writes back no lines.
	build := func() *pheap.Heap {
		h, reg := newHeap(t, 4<<20)
		buildGraph(t, h, reg, 5, 2000, 6)
		return h
	}
	h1 := build()
	r1, err := Collect(h1, NoRoots{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	h2 := build()
	h2.Device().SetNoFlush(true)
	r2, err := Collect(h2, NoRoots{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.MovedObjects != r2.MovedObjects {
		t.Fatalf("flush mode changed the algorithm: %d vs %d moves", r1.MovedObjects, r2.MovedObjects)
	}
	if r1.DeviceStats.FlushedLines == 0 || r2.DeviceStats.FlushedLines != 0 {
		t.Fatalf("flushed lines: with=%d without=%d", r1.DeviceStats.FlushedLines, r2.DeviceStats.FlushedLines)
	}
}
