package pheap

import (
	"sync"

	"espresso/internal/layout"
	"espresso/internal/telemetry"
)

// Per-mutator remembered-set delta buffers — the write-combining half of
// the reference-store barrier. The runtime above (internal/core) keeps a
// precise NVM→DRAM remembered set; maintaining it eagerly would put a
// shared map mutation (and its lock) on every hot reference store. So the
// barrier instead appends a RemsetDelta to a buffer owned by the storing
// mutator — the same owner-append/collector-drain lifecycle as the SATB
// buffers next door — and the shared set is only touched at publication
// points:
//
//   - transaction commit (ptx.Tx publishes its batch, aborts discard it);
//   - safepoint entry (PrepareForCollection drains every registered
//     buffer with the world stopped, so every collection observes a
//     complete remembered set);
//   - buffer overflow (the owner drains its own buffer, amortized).
//
// The heap cannot interpret the deltas itself — the remembered set and
// the volatile-address predicate live in core — so core installs a
// RemsetSink per heap and the buffers drain through it.

// RemsetDelta is one pending remembered-set mutation: the absolute slot
// address and whether the slot now holds a volatile reference (Add) or a
// persistent/null one (Remove). Deltas for one slot are applied in append
// order, so the last store wins, exactly as eager updates would.
type RemsetDelta struct {
	Slot layout.Ref
	Add  bool
}

// RemsetSink consumes published deltas and classifies references; the
// runtime that owns the remembered set installs one per heap with
// SetRemsetSink. Implementations must be safe for concurrent use: owners
// publish on overflow while collectors publish at safepoints.
type RemsetSink interface {
	// PublishRemsetDeltas applies a batch to the shared remembered set in
	// slice order.
	PublishRemsetDeltas([]RemsetDelta)
	// RefIsVolatile reports whether ref points into the volatile heap —
	// the membership predicate heap-level writers (ptx) cannot evaluate
	// themselves.
	RefIsVolatile(ref layout.Ref) bool
}

// RemsetDeltaOverflow is the per-buffer record count at which the owner
// publishes its own buffer instead of letting it grow — the third
// publication point. Large enough that publication cost (one shard-locked
// map op per record) amortizes to noise per store; small enough that a
// buffer never holds more than a few cache lines of pending records.
const RemsetDeltaOverflow = 512

// RemsetDeltaBuffer collects remembered-set deltas for one mutator. The
// owning mutator appends; publication points drain. The mutex is
// buffer-local — appends contend with nothing except the moment of a
// safepoint drain, so the hot store path touches no shared lock and no
// shared cache line for remset maintenance.
type RemsetDeltaBuffer struct {
	mu     sync.Mutex
	deltas []RemsetDelta
	h      *Heap // overflow publication target
}

// Record appends one delta; on overflow the owner publishes its own
// buffer through the heap's sink (amortized, never on the common path).
// Use RecordStore when the delta describes a device store the caller is
// about to perform — Record alone gives a drain no guarantee about
// whether the store has landed.
func (b *RemsetDeltaBuffer) Record(slot layout.Ref, add bool) {
	b.RecordStore(slot, add, nil)
}

// RecordStore performs store (when non-nil) and appends the delta as one
// step that no drain can split: both happen under the buffer mutex, so
// by the time any drain — a safepoint publication, a collector, or this
// buffer's own overflow — observes the delta, the store it describes is
// on the device. Publication re-derives remembered-set membership from
// the slot's current value, which is only sound with that ordering: a
// delta drained before its store landed would re-derive from the stale
// value and lose the edge forever. The mutex is buffer-local, so the
// hot path still contends with nothing but the moment of a drain.
func (b *RemsetDeltaBuffer) RecordStore(slot layout.Ref, add bool, store func()) {
	b.mu.Lock()
	if store != nil {
		store()
	}
	b.deltas = append(b.deltas, RemsetDelta{Slot: slot, Add: add})
	overflow := len(b.deltas) >= RemsetDeltaOverflow
	b.mu.Unlock()
	if overflow {
		b.Publish()
	}
}

// Pending reports how many deltas are buffered (diagnostics, heaptool).
func (b *RemsetDeltaBuffer) Pending() int {
	b.mu.Lock()
	n := len(b.deltas)
	b.mu.Unlock()
	return n
}

// drain moves the buffered deltas out, leaving the buffer empty.
func (b *RemsetDeltaBuffer) drain() []RemsetDelta {
	b.mu.Lock()
	ds := b.deltas
	b.deltas = nil
	b.mu.Unlock()
	return ds
}

// Publish drains this buffer into the heap's sink. Without a sink (a
// standalone pheap, heaptool) the deltas are dropped — there is no
// remembered set to maintain.
func (b *RemsetDeltaBuffer) Publish() {
	ds := b.drain()
	if len(ds) == 0 {
		return
	}
	// Publication is a cold path (commit / safepoint / every-512 overflow)
	// and may run on a collector draining another owner's buffer, so the
	// counts go to the registry's shared cell with atomic ops.
	if sc := b.h.tel.Shared(); sc != nil {
		sc.AtomicInc(telemetry.CtrRemsetPublish)
		sc.AtomicAdd(telemetry.CtrRemsetDeltas, uint64(len(ds)))
	}
	if sink := b.h.RemsetSink(); sink != nil {
		sink.PublishRemsetDeltas(ds)
	}
}

// SetRemsetSink installs the remembered-set consumer for this heap. The
// runtime calls it when the heap is attached, before any mutator runs;
// the atomic store keeps late readers (overflow publishes on other
// goroutines) race-free regardless.
func (h *Heap) SetRemsetSink(s RemsetSink) {
	if s != nil {
		h.remsetSink.Store(&s)
	}
}

// RemsetSink returns the installed sink, or nil.
func (h *Heap) RemsetSink() RemsetSink {
	if p := h.remsetSink.Load(); p != nil {
		return *p
	}
	return nil
}

// NewRemsetDeltaBuffer registers a fresh per-mutator delta buffer with
// the heap, beside the mutator's SATB buffer.
func (h *Heap) NewRemsetDeltaBuffer() *RemsetDeltaBuffer {
	b := &RemsetDeltaBuffer{h: h}
	h.remsetMu.Lock()
	h.remsetBuffers = append(h.remsetBuffers, b)
	h.remsetMu.Unlock()
	return b
}

// ReleaseRemsetDeltaBuffer unregisters b, publishing anything still
// pending so a mutator retiring between safepoints cannot lose deltas.
func (h *Heap) ReleaseRemsetDeltaBuffer(b *RemsetDeltaBuffer) {
	if b == nil {
		return
	}
	h.remsetMu.Lock()
	for i, other := range h.remsetBuffers {
		if other == b {
			h.remsetBuffers = append(h.remsetBuffers[:i], h.remsetBuffers[i+1:]...)
			break
		}
	}
	h.remsetMu.Unlock()
	b.Publish()
}

// remsetDefaultShards is the number of shared fallback buffers. Stores
// outside any mutator context (the Runtime facade path) ride these, and
// RecordStore holds the buffer mutex across the device store — one
// buffer would serialize every facade-routed ref store on the heap,
// a regression against the old 64-way-sharded eager set. Sharding by
// slot restores the spread; deltas for one slot landing in different
// shards across calls is fine, because publication re-derives membership
// from the device rather than trusting cross-buffer order.
const remsetDefaultShards = 16

// DefaultRemsetDeltaBuffer returns the heap's shared fallback buffer for
// slot, used by reference stores that run outside any mutator context
// (the analog of the default SATB buffer, sharded by slot address). The
// lookup is one atomic load after the shard's first use.
func (h *Heap) DefaultRemsetDeltaBuffer(slot layout.Ref) *RemsetDeltaBuffer {
	s := &h.remsetDefault[(uint64(slot)*0x9e3779b97f4a7c15)>>60]
	if b := s.Load(); b != nil {
		return b
	}
	h.remsetMu.Lock()
	defer h.remsetMu.Unlock()
	if b := s.Load(); b != nil {
		return b
	}
	b := &RemsetDeltaBuffer{h: h}
	h.remsetBuffers = append(h.remsetBuffers, b)
	s.Store(b)
	return b
}

// PublishRemsetDeltas drains every registered buffer through the sink.
// PrepareForCollection calls it with the world stopped — the safepoint
// publication point that makes the shared remembered set complete before
// either collector consults it — and the runtime calls it before
// volatile collections, which run under the safepoint read lock (the
// per-buffer mutex makes a collector drain safe against a concurrent
// owner append).
func (h *Heap) PublishRemsetDeltas() {
	h.remsetMu.Lock()
	buffers := append([]*RemsetDeltaBuffer(nil), h.remsetBuffers...)
	h.remsetMu.Unlock()
	for _, b := range buffers {
		b.Publish()
	}
}

// PublishRemsetDeltasShard drains the registered buffers whose registry
// index ≡ worker (mod workers) — the parallel-marking analog of
// PublishRemsetDeltas, letting the worker pool spread the publication
// work the same way DrainSATBShard spreads the SATB buffers. Sound
// because the sink contract requires concurrent safety and publication
// re-derives membership per slot from the device, so shard order across
// workers does not matter.
func (h *Heap) PublishRemsetDeltasShard(worker, workers int) {
	h.remsetMu.Lock()
	buffers := append([]*RemsetDeltaBuffer(nil), h.remsetBuffers...)
	h.remsetMu.Unlock()
	for i := worker; i < len(buffers); i += workers {
		buffers[i].Publish()
	}
}

// RemsetDeltaStats reports, per registered buffer, the number of pending
// deltas (diagnostics: heaptool inspect, tests).
func (h *Heap) RemsetDeltaStats() []int {
	h.remsetMu.Lock()
	buffers := append([]*RemsetDeltaBuffer(nil), h.remsetBuffers...)
	h.remsetMu.Unlock()
	counts := make([]int, len(buffers))
	for i, b := range buffers {
		counts[i] = b.Pending()
	}
	return counts
}
