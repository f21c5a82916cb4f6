package pgc

import (
	"fmt"
	"time"

	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc/concurrent"
	"espresso/internal/pheap"
	"espresso/internal/telemetry"
	"espresso/internal/telemetry/blackbox"
)

// snapCounters journals a folded-counter snapshot at the end of a cycle
// (rate context for post-mortems: how much work the process had done by
// this point in the timeline). No-op without both a recorder and a
// registry.
func snapCounters(h *pheap.Heap, fr *blackbox.Recorder) {
	tel := h.Telemetry()
	if fr == nil || tel == nil {
		return
	}
	snap := tel.Snapshot()
	fr.Append(blackbox.EvCounterSnap,
		snap.Counter(telemetry.CtrAllocObjects.Name()),
		snap.Counter(telemetry.CtrRefStores.Name()),
		snap.Counter(telemetry.CtrIndexPuts.Name()))
}

// Result reports what a collection (or recovery) did.
type Result struct {
	LiveObjects  int
	LiveBytes    int
	MovedObjects int
	MovedBytes   int
	NewTop       int
	// MarkTime is the wall time spent marking: inside the pause for a
	// stop-the-world cycle (Collect with a nil World), overlapped with
	// mutators otherwise.
	MarkTime time.Duration
	// PauseTime is the time mutators were held. For a stop-the-world
	// cycle and for Recover it is the whole collection, marking
	// included; with a World it is the initial handshake plus the final
	// remark+compaction pause.
	PauseTime time.Duration
	// DeviceStats is the device traffic of the whole collection;
	// PauseDeviceStats is the subset issued while mutators were held, so
	// the two are equal for a stop-the-world cycle and for Recover. With
	// a World, DeviceStats also absorbs whatever traffic mutators issue
	// while marking runs, since the device counters are shared.
	DeviceStats      nvm.Stats
	PauseDeviceStats nvm.Stats
	// Per-worker device accounting for the parallel phases — index w is
	// worker w's share. MarkWorkerStats covers tracing (the busiest
	// worker bounds the marking wall clock on a real device);
	// CompactFixWorkerStats covers the parallel reference-fix pass of
	// compaction; CompactSerialStats is the rest of the compact phase
	// (the serial move pass, region-bit publication, fillers). The
	// modeled device critical path of mark+compact is
	// max(MarkWorkerStats) + max(CompactFixWorkerStats) +
	// CompactSerialStats, which the gcpause experiment's workers axis
	// gates on.
	MarkWorkerStats       []nvm.Stats
	CompactFixWorkerStats []nvm.Stats
	CompactSerialStats    nvm.Stats
	// Per-worker wall times for the same parallel phases.
	// MarkWorkerTimes is each mark worker's productive tracing time
	// (loop wall time minus termination-barrier parking), accumulated
	// over every trace round of the cycle; CompactFixWorkerTimes is each
	// fix worker's shard wall time. Skew across a slice means uneven
	// work division — the signal the device-stat splits above cannot
	// show when the imbalance is in host work (deque contention,
	// scheduling) rather than device traffic. Both are also emitted as
	// gc.mark.worker / gc.fix.worker telemetry spans when the heap has a
	// registry attached.
	MarkWorkerTimes       []time.Duration
	CompactFixWorkerTimes []time.Duration
	Recovered             bool // true when produced by Recover
}

// World is the mutator handshake a collection pauses through. StopWorld
// returns with every mutator parked at a safepoint (outside any heap
// operation) and the collector exclusive; StartWorld releases them.
// core.Runtime adapts its safepoint lock.
type World interface {
	StopWorld()
	StartWorld()
}

// StoppedWorld is a World whose handshakes are no-ops, for callers whose
// mutators are already quiescent but who want the concurrent-mark cycle
// (persisted phase word, mode-1 journal) rather than Collect's
// stop-the-world form — tests and single-threaded tools.
type StoppedWorld struct{}

// StopWorld is a no-op: nothing is running.
func (StoppedWorld) StopWorld() {}

// StartWorld is a no-op.
func (StoppedWorld) StartWorld() {}

// Collect runs one crash-consistent collection of h (paper §4.3). ext
// supplies (and receives updates for) DRAM references into the heap; nil
// means none. workers sizes the GC pool that marking and the parallel
// compaction passes fan out over (< 1 means 1); the heap image is
// byte-identical for every value on a quiescent heap.
//
// w selects how mutators overlap the cycle. With w == nil the caller
// holds the world for the whole cycle — the JVM's stop-the-world old GC:
// PauseTime and PauseDeviceStats cover everything, the cycle is one
// gc.stw span, and it journals EvGCBegin with mode 0. Otherwise marking
// runs concurrently with the mutators and w pauses them twice:
//
//  1. Initial handshake: detach PLABs and recycled holes
//     (pheap.PrepareForCollection — region tops are already persisted),
//     snapshot the region-top table, capture the root set, clear both
//     bitmaps, arm the SATB pre-write barrier, and persist the GC-phase
//     word as mid-concurrent-mark.
//  2. Concurrent mark: trace the graph below the snapshot tops while
//     mutators keep bump-allocating above them (allocate-black) and the
//     barrier records every overwritten referent; drain those records
//     until a drain comes back empty.
//  3. Final pause: one last SATB drain + trace and the allocate-black
//     sweep over everything allocated since the snapshot, then persist
//     the bitmaps, stamp gcActive (after which the phase word is
//     retired: the persisted bitmap now carries the cycle), summarize,
//     compact, finish through the redo log, patch roots, republish
//     holes.
//
// A stop-the-world cycle runs the same steps with the handshakes elided
// and no phase word: with nothing running beside the marker there is no
// mark to announce.
//
// Crash consistency: before gcActive is set the heap is untouched — a
// crash leaves at most the phase word announcing the aborted mark, which
// Recover/Load clear (fall back to a fresh cycle). After gcActive is set
// the persisted bitmap drives the standard resumable recovery.
func Collect(h *pheap.Heap, ext Rooter, w World, workers int) (Result, error) {
	if workers < 1 {
		workers = 1
	}
	if !h.TryBeginCollection() {
		return Result{}, fmt.Errorf("pgc: another collection of this heap is already running")
	}
	defer h.EndCollection()
	if h.GCActive() {
		return Result{}, fmt.Errorf("pgc: heap is mid-collection; run Recover first")
	}
	if ext == nil {
		ext = NoRoots{}
	}
	stw := w == nil
	if stw {
		w = StoppedWorld{}
	}
	start := time.Now()
	dev := h.Device()
	statsBefore := dev.Stats()
	tel := h.Telemetry() // nil when telemetry is disabled; every method no-ops
	fr := h.FlightRecorder()

	// Phase 1: initial handshake.
	w.StopWorld()
	pause1Start := time.Now()
	p1Before := dev.Stats()
	clearGCPhase(h) // stale announcement from an aborted cycle
	h.PrepareForCollection()
	h.MarkBitmap().ClearAll()
	h.RegionBitmap().ClearAll()
	snap := h.SnapshotRegionTops()
	roots := heapRoots(h, ext)
	h.BeginConcurrentMark(snap)
	mode := uint64(0)
	if !stw {
		h.SetGCPhase(pheap.GCPhaseConcurrentMark)
		mode = 1
	}
	fr.Append(blackbox.EvGCBegin, mode, h.GlobalTS(), 0)
	pauseStats := dev.Stats().Sub(p1Before)
	pause1 := time.Since(pause1Start)
	w.StartWorld()
	tel.RecordSpan(telemetry.SpanGCHandshake, -1, -1, pause1Start, pause1)

	// Phase 2: concurrent mark. Any error aborts the cycle: disarm the
	// barrier under a pause and clear the phase word — nothing has moved.
	markStart := time.Now()
	mk := concurrent.NewMarker(h, snap, workers)
	abort := func(err error) (Result, error) {
		w.StopWorld()
		h.EndConcurrentMark()
		clearGCPhase(h)
		fr.Append(blackbox.EvGCAbort, h.GlobalTS(), 0, 0)
		w.StartWorld()
		return Result{}, err
	}
	if err := mk.MarkRoots(roots); err != nil {
		return abort(err)
	}
	if err := mk.ConcurrentDrainLoop(); err != nil {
		return abort(err)
	}
	markTime := time.Since(markStart)
	tel.RecordSpan(telemetry.SpanGCMark, -1, -1, markStart, markTime)
	// Snapshot the workers' locally-tallied device traffic now, while it
	// covers exactly the concurrent phase: these reads and writes were
	// folded into the shared counters between the pauses (or will be
	// folded during pause 2, for the remark's share), so the pause-window
	// deltas below miss precisely this amount. Mutator traffic during
	// marking is attributed at its own call sites and never lands here.
	var concStats nvm.Stats
	for _, ws := range mk.MarkWorkerStats() {
		concStats = concStats.Add(ws)
	}

	// Phase 3: final pause.
	w.StopWorld()
	pause2Start := time.Now()
	p2Before := dev.Stats()
	finalErr := func(err error) (Result, error) {
		clearGCPhase(h)
		fr.Append(blackbox.EvGCAbort, h.GlobalTS(), 0, 0)
		w.StartWorld()
		return Result{}, err
	}
	h.PrepareForCollection() // mutators attached fresh PLABs while marking ran
	h.EndConcurrentMark()
	dirtyRegions := h.SATBDirtyCards()
	remarkStart := time.Now()
	if err := mk.FinalRemark(h.SnapshotRegionTops()); err != nil {
		return finalErr(err)
	}
	tel.RecordSpan(telemetry.SpanGCRemark, -1, -1, remarkStart, time.Since(remarkStart))
	// Both bitmaps must be durable before the stamp: recovery plans from
	// the mark bitmap and trusts the region bits, so a stale bit from a
	// previous cycle must not survive into this one.
	liveObjects, liveBytes := mk.Counts()
	h.PersistMarkBitmapUsed()
	h.RegionBitmap().Persist()
	fr.Append(blackbox.EvGCMarkDone, uint64(liveObjects), uint64(liveBytes), 0)

	// Stamp the heap mid-collection (timestamp first, flag second; see
	// pheap.SetGCState for why the order matters). The phase word retires
	// once gcActive carries the cycle — the persisted bitmap is complete,
	// so recovery resumes the compaction rather than discarding the mark.
	cur := h.GlobalTS() + 1
	h.SetGCState(cur, true)
	clearGCPhase(h)
	fr.Append(blackbox.EvGCStamp, cur, uint64(liveObjects), uint64(liveBytes))
	// Summary: idempotent, derived from the bitmap alone. Nothing has
	// moved yet, so a failure un-stamps the heap.
	sumStart := time.Now()
	s, err := Summarize(h)
	if err != nil {
		h.SetGCState(cur, false)
		return finalErr(err)
	}
	sumTime := time.Since(sumStart)
	if s.LiveObjects != liveObjects || s.LiveBytes != liveBytes {
		h.SetGCState(cur, false)
		return finalErr(fmt.Errorf("pgc: summary disagrees with marking: %d/%d objects, %d/%d bytes",
			s.LiveObjects, liveObjects, s.LiveBytes, liveBytes))
	}
	// The compactor skips reference fixing for regions the marker proved
	// free of references to moved objects; the barrier's dirty cards veto
	// regions mutated after their objects were traced. This is what keeps
	// the pause proportional to churn + moves, not to everything live.
	rl := relocate(h, s, cur, buildCleanCards(s, mk.MaxOutgoing(), dirtyRegions), workers, fr)
	ext.UpdateRoots(s.Forward)
	fr.Append(blackbox.EvGCEnd, uint64(s.LiveObjects), uint64(s.MovedObjects), uint64(s.NewTop))
	snapCounters(h, fr)
	pauseStats = pauseStats.Add(dev.Stats().Sub(p2Before))
	pause2 := time.Since(pause2Start)
	w.StartWorld()

	res := Result{
		LiveObjects:           s.LiveObjects,
		LiveBytes:             s.LiveBytes,
		MovedObjects:          s.MovedObjects,
		MovedBytes:            s.MovedBytes,
		NewTop:                s.NewTop,
		MarkTime:              markTime,
		PauseTime:             pause1 + pause2,
		DeviceStats:           dev.Stats().Sub(statsBefore),
		PauseDeviceStats:      pauseStats,
		MarkWorkerStats:       mk.MarkWorkerStats(),
		CompactFixWorkerStats: rl.cr.fixWorkerStats,
		CompactSerialStats:    rl.cr.serialStats,
		MarkWorkerTimes:       mk.MarkWorkerTimes(),
		CompactFixWorkerTimes: rl.cr.fixWorkerTimes,
	}
	// GC device traffic is the two pause windows plus the concurrent-
	// phase worker traffic snapshotted above, minus the redo-log finish
	// window, which gets its own subsystem. With the world held
	// throughout, the whole cycle is one pause: marking included.
	gcStats := pauseStats.Add(concStats)
	pauseSpan, pauseSpanStart, pauseSpanLen := telemetry.SpanGCFinalPause, pause2Start, pause2
	if stw {
		res.PauseTime = time.Since(start)
		res.PauseDeviceStats = res.DeviceStats
		gcStats = res.DeviceStats
		pauseSpan, pauseSpanStart, pauseSpanLen = telemetry.SpanGCSTW, start, res.PauseTime
	}

	// Phase timeline + device attribution, recorded after the world
	// restarts (the span ring is DRAM-only; nothing here holds the pause
	// open).
	tel.RecordSpan(telemetry.SpanGCSummarize, -1, -1, sumStart, sumTime)
	tel.RecordSpan(telemetry.SpanGCCompact, -1, -1, rl.compactStart, rl.compactTime)
	tel.RecordSpan(telemetry.SpanGCRedo, -1, -1, rl.redoStart, rl.redoTime)
	tel.RecordSpan(pauseSpan, -1, -1, pauseSpanStart, pauseSpanLen)
	for i, d := range res.MarkWorkerTimes {
		tel.RecordSpan(telemetry.SpanGCMarkWorker, -1, i, markStart, d)
	}
	for i, d := range res.CompactFixWorkerTimes {
		tel.RecordSpan(telemetry.SpanGCFixWorker, -1, i, rl.compactStart, d)
	}
	if sc := tel.Shared(); sc != nil {
		sc.AtomicInc(telemetry.CtrGCCycles)
		sc.AtomicDevStats(nvm.SubGC, gcStats.Sub(rl.redoStats))
		sc.AtomicDevStats(nvm.SubRedo, rl.redoStats)
	}
	return res, nil
}

// clearGCPhase retires a persisted concurrent-mark announcement; an idle
// word is left alone, so a cycle that never announced one pays no flush.
func clearGCPhase(h *pheap.Heap) {
	if h.GCPhase() != pheap.GCPhaseIdle {
		h.SetGCPhase(pheap.GCPhaseIdle)
	}
}

// relocation reports the compaction and redo-finish windows of relocate
// for the caller's spans and device attribution.
type relocation struct {
	cr                      compactResult
	compactStart, redoStart time.Time
	compactTime, redoTime   time.Duration
	redoStats               nvm.Stats
}

// relocate is the tail every cycle shares, recovery included: drop the
// recycling state (it describes the pre-GC layout), run the summary's
// compaction, commit it through the redo log, and hand the
// filler-covered gaps back to the allocators. A phase word still
// announcing a concurrent mark is stale once gcActive carries the cycle,
// so it is cleared before the finish batch retires gcActive (a crash in
// between leaves gcActive set and reruns recovery). fr journals the end
// of compaction; Recover passes nil, journaling its replay as one event.
func relocate(h *pheap.Heap, s *Summary, cur uint64, cleanCard []bool, workers int, fr *blackbox.Recorder) relocation {
	var rl relocation
	h.ResetFreeHoles()
	rl.compactStart = time.Now()
	rl.cr = compact(h, s, cur, cleanCard, workers)
	rl.compactTime = time.Since(rl.compactStart)
	fr.Append(blackbox.EvGCCompactDone, uint64(s.MovedObjects), uint64(s.MovedBytes), 0)
	clearGCPhase(h)
	redoBefore := h.Device().Stats()
	rl.redoStart = time.Now()
	finish(h, s, rl.cr.topEntries)
	rl.redoStats = h.Device().Stats().Sub(redoBefore)
	rl.redoTime = time.Since(rl.redoStart)
	h.SetFreeHoles(rl.cr.holes)
	return rl
}

// finish commits the collection's metadata transition — forwarded root
// entries, the republished per-region tops (topEntries, accumulated by
// the compactor's fill workers in region order), gcActive=0 — through
// the redo log so the whole batch is atomic and idempotently
// reapplicable: however many workers produced pieces of the batch, it
// becomes durable through ONE RedoCommit, whose count+state flush is the
// single commit point (the single-publish invariant — see compact).
// After compaction the heap is dense below NewTop (gap fillers included),
// so every region below it parses to its end (or to NewTop in the last,
// partial region — which the dispenser then resumes filling), and every
// region above it is reset to untouched.
func finish(h *pheap.Heap, s *Summary, topEntries []pheap.RedoEntry) {
	var entries []pheap.RedoEntry
	for _, root := range h.Roots() {
		entries = append(entries, pheap.RedoEntry{Off: root.ValueOff, Val: uint64(s.Forward(root.Ref))})
	}
	entries = append(entries, topEntries...)
	entries = append(entries, pheap.RedoEntry{Off: h.GCActiveMetaOff(), Val: 0})
	h.RedoCommit(entries)
	h.RedoApply()
	h.RefreshAfterRedo()
}

// gapOf reports the filler-covered gap of region r below the new top.
func gapOf(h *pheap.Heap, s *Summary, r int) (lo, hi int) {
	start := h.Geo().DataOff + r*layout.RegionSize
	lo = start + s.Occupancy(r)
	hi = start + layout.RegionSize
	if hi > s.NewTop {
		hi = s.NewTop
	}
	return lo, hi
}

// recyclableOf trims gap [lo, hi) to cache-line boundaries. Only the
// aligned middle is handed back to allocators: a hole that started
// mid-line would share its first flushed line with the live object the
// compactor left right before it, and a mutator refilling the hole must
// never write a line another mutator may concurrently flush. The edge
// slivers stay plugged with their own fillers until the next collection.
func recyclableOf(lo, hi int) (pheap.Hole, bool) {
	alignedLo := (lo + layout.LineSize - 1) &^ (layout.LineSize - 1)
	alignedHi := hi &^ (layout.LineSize - 1)
	if alignedHi-alignedLo < layout.LineSize {
		return pheap.Hole{}, false
	}
	return pheap.Hole{Lo: alignedLo, Hi: alignedHi}, true
}

// RecoverIfNeeded runs Recover only when the heap's persisted state says
// a collection (or a stale concurrent-mark announcement) was interrupted,
// reporting whether recovery ran. A clean image pays nothing: the check
// is two word reads, no collection slot is taken. core.LoadHeap and
// pshard's parallel recovery fan-out both gate on this.
func RecoverIfNeeded(h *pheap.Heap) (Result, bool, error) {
	if !h.GCActive() && h.GCPhase() == pheap.GCPhaseIdle {
		return Result{}, false, nil
	}
	r, err := Recover(h)
	return r, true, err
}

// Recover finishes an interrupted collection on a freshly loaded heap
// (paper §4.3): refetch the mark bitmap, redo the summary, process the
// regions the region bitmap and source timestamps report unfinished, and
// rerun the atomic finish — the same relocate step a live cycle ends
// with. It is a no-op on a heap that is not mid-collection — except that
// it clears a leftover concurrent-mark phase word: with gcActive clear,
// that word means the crash interrupted marking before anything moved,
// so the recovery is "discard the partial mark, start the next cycle
// fresh". Recovery itself may crash and be rerun: every step is
// idempotent.
func Recover(h *pheap.Heap) (Result, error) {
	if !h.TryBeginCollection() {
		return Result{}, fmt.Errorf("pgc: another collection of this heap is already running")
	}
	defer h.EndCollection()
	if !h.GCActive() {
		clearGCPhase(h)
		return Result{}, nil
	}
	start := time.Now()
	statsBefore := h.Device().Stats()
	h.PrepareForCollection()
	fr := h.FlightRecorder()
	fr.Append(blackbox.EvRecoveryGCBegin, h.GlobalTS(), 1, 0)
	s, err := Summarize(h)
	if err != nil {
		return Result{}, fmt.Errorf("pgc: recovery summary: %w", err)
	}
	// Recovery has no marker state (the outgoing-reference summary died
	// with the crashed process), so it conservatively rescans everything
	// — and runs single-threaded: recovery is rare, and one worker keeps
	// its flush ordering identical to the historical serial compactor.
	relocate(h, s, h.GlobalTS(), nil, 1, nil)
	fr.Append(blackbox.EvRecoveryGCEnd, uint64(s.LiveObjects), uint64(s.MovedObjects), uint64(s.NewTop))
	stats := h.Device().Stats().Sub(statsBefore)
	// The whole replay is one recovery event: one span, all device
	// traffic attributed to the recovery subsystem.
	tel := h.Telemetry()
	tel.RecordSpan(telemetry.SpanRecoveryGC, -1, -1, start, time.Since(start))
	if sc := tel.Shared(); sc != nil {
		sc.AtomicInc(telemetry.CtrGCRecoveries)
		sc.AtomicDevStats(nvm.SubRecovery, stats)
	}
	return Result{
		LiveObjects:      s.LiveObjects,
		LiveBytes:        s.LiveBytes,
		MovedObjects:     s.MovedObjects,
		MovedBytes:       s.MovedBytes,
		NewTop:           s.NewTop,
		PauseTime:        time.Since(start),
		DeviceStats:      stats,
		PauseDeviceStats: stats,
		Recovered:        true,
	}, nil
}
