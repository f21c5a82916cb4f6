// Package vheap implements the volatile side of the ParallelScavenge heap
// the paper extends (§3.1): a young generation (eden plus two survivor
// semispaces) collected by copying scavenges with age-based promotion, and
// an old generation collected by sliding mark-compact. PJH is "an
// independent Persistent Space against the original PSHeap"; this package
// is that original heap, giving `new` objects somewhere to live so mixed
// DRAM/NVM object graphs, alias Klasses, and the safety levels are real.
//
// DRAM needs no crash consistency, so the collectors here are the plain
// textbook algorithms; cross-space references are tracked with precise
// remembered sets maintained by the runtime's write barrier.
package vheap

import (
	"encoding/binary"
	"errors"
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/pheap"
)

// ErrNeedGC reports an allocation that should be retried after a minor
// collection.
var ErrNeedGC = errors.New("vheap: young generation full")

// ErrOldFull reports an allocation that should be retried after a full
// collection.
var ErrOldFull = errors.New("vheap: old generation full")

// ErrOutOfMemory reports exhaustion even after collection.
var ErrOutOfMemory = errors.New("vheap: out of memory")

// Mark-word flag bits (the low byte layout.MarkWord reserves).
const (
	flagForwarded = 0x80 // mark word holds a forwarding address
	ageMask       = 0x0f
	// PromoteAge is the survivor round count after which an object is
	// tenured into the old generation.
	PromoteAge = 3
)

// Config sizes the heap. Zero values choose defaults.
type Config struct {
	EdenSize     int // default 4 MB
	SurvivorSize int // per semispace, default 512 KB
	OldSize      int // default 16 MB
}

// RootSet enumerates and patches the slots outside the volatile heap that
// may hold references into it: runtime handles and NVM-resident fields
// (the persistent-to-volatile remembered set). The collector calls fn on
// every slot value; the implementation must store the result back.
type RootSet interface {
	UpdateSlots(fn func(layout.Ref) layout.Ref)
}

// NoRoots is an empty RootSet.
type NoRoots struct{}

// UpdateSlots is a no-op.
func (NoRoots) UpdateSlots(func(layout.Ref) layout.Ref) {}

// Heap is the volatile two-generation heap.
type Heap struct {
	reg *klass.Registry

	eden     []byte
	surv     [2][]byte // survivor semispaces; toIdx names the empty one
	old      []byte
	edenBase layout.Ref
	survBase [2]layout.Ref
	oldBase  layout.Ref
	edenTop  int
	survTop  int // fill of the *from* space after the last scavenge
	oldTop   int
	toIdx    int
	edenSize int
	survSize int
	oldSize  int

	// oldToYoung is the precise remembered set: device-wide virtual
	// addresses of old-generation slots currently holding young refs.
	oldToYoung map[layout.Ref]struct{}

	// Stats.
	MinorGCs, FullGCs int
	PromotedBytes     uint64
	CopiedBytes       uint64
}

// New creates an empty heap.
func New(reg *klass.Registry, cfg Config) *Heap {
	if cfg.EdenSize == 0 {
		cfg.EdenSize = 4 << 20
	}
	if cfg.SurvivorSize == 0 {
		cfg.SurvivorSize = 512 << 10
	}
	if cfg.OldSize == 0 {
		cfg.OldSize = 16 << 20
	}
	h := &Heap{
		reg:        reg,
		eden:       make([]byte, cfg.EdenSize),
		old:        make([]byte, cfg.OldSize),
		edenSize:   cfg.EdenSize,
		survSize:   cfg.SurvivorSize,
		oldSize:    cfg.OldSize,
		edenBase:   layout.YoungBase,
		oldBase:    layout.OldBase,
		oldToYoung: make(map[layout.Ref]struct{}),
		toIdx:      1,
	}
	h.surv[0] = make([]byte, cfg.SurvivorSize)
	h.surv[1] = make([]byte, cfg.SurvivorSize)
	h.survBase[0] = layout.YoungBase + layout.Ref(cfg.EdenSize)
	h.survBase[1] = h.survBase[0] + layout.Ref(cfg.SurvivorSize)
	return h
}

// Registry returns the klass registry.
func (h *Heap) Registry() *klass.Registry { return h.reg }

// InEden reports whether ref lies in eden.
func (h *Heap) InEden(ref layout.Ref) bool {
	return ref >= h.edenBase && ref < h.edenBase+layout.Ref(h.edenSize)
}

// inSurvivor reports whether ref lies in either survivor space.
func (h *Heap) inSurvivor(ref layout.Ref) bool {
	return (ref >= h.survBase[0] && ref < h.survBase[0]+layout.Ref(h.survSize)) ||
		(ref >= h.survBase[1] && ref < h.survBase[1]+layout.Ref(h.survSize))
}

// InYoung reports whether ref lies in the young generation.
func (h *Heap) InYoung(ref layout.Ref) bool { return h.InEden(ref) || h.inSurvivor(ref) }

// InOld reports whether ref lies in the old generation.
func (h *Heap) InOld(ref layout.Ref) bool {
	return ref >= h.oldBase && ref < h.oldBase+layout.Ref(h.oldSize)
}

// Contains reports whether ref lies anywhere in the volatile heap.
func (h *Heap) Contains(ref layout.Ref) bool { return h.InYoung(ref) || h.InOld(ref) }

// mem resolves a ref to its backing slice and byte offset.
func (h *Heap) mem(ref layout.Ref) ([]byte, int) {
	switch {
	case h.InEden(ref):
		return h.eden, int(ref - h.edenBase)
	case ref >= h.survBase[0] && ref < h.survBase[0]+layout.Ref(h.survSize):
		return h.surv[0], int(ref - h.survBase[0])
	case ref >= h.survBase[1] && ref < h.survBase[1]+layout.Ref(h.survSize):
		return h.surv[1], int(ref - h.survBase[1])
	case h.InOld(ref):
		return h.old, int(ref - h.oldBase)
	}
	panic(fmt.Sprintf("vheap: address %#x outside volatile heap", uint64(ref)))
}

// GetWord loads the 8-byte slot at byte offset boff of the object at ref.
func (h *Heap) GetWord(ref layout.Ref, boff int) uint64 {
	m, off := h.mem(ref)
	return binary.LittleEndian.Uint64(m[off+boff:])
}

// SetWord stores the 8-byte slot at byte offset boff of the object at ref.
func (h *Heap) SetWord(ref layout.Ref, boff int, v uint64) {
	m, off := h.mem(ref)
	binary.LittleEndian.PutUint64(m[off+boff:], v)
}

// Bytes returns a window over the n bytes at byte offset boff of the
// object at ref, backed by the heap's own storage. Callers may read or
// write through it directly — DRAM needs no flush accounting — which is
// what makes bulk string/array copies one memmove instead of a per-byte
// word loop.
func (h *Heap) Bytes(ref layout.Ref, boff, n int) []byte {
	m, off := h.mem(ref)
	return m[off+boff : off+boff+n : off+boff+n]
}

// KlassOf resolves the klass of the object at ref.
func (h *Heap) KlassOf(ref layout.Ref) (*klass.Klass, error) {
	kaddr := layout.Ref(h.GetWord(ref, layout.KlassWordOff))
	k, ok := h.reg.ByMetaAddr(kaddr)
	if !ok {
		return nil, fmt.Errorf("vheap: object %#x has dangling klass word %#x", uint64(ref), uint64(kaddr))
	}
	return k, nil
}

// ArrayLen reads the length word of the array at ref.
func (h *Heap) ArrayLen(ref layout.Ref) int { return int(h.GetWord(ref, layout.ArrayLenOff)) }

// sizeOf decodes an object's klass and total size.
func (h *Heap) sizeOf(ref layout.Ref) (*klass.Klass, int, error) {
	k, err := h.KlassOf(ref)
	if err != nil {
		return nil, 0, err
	}
	n := 0
	if k.IsArray() {
		n = h.ArrayLen(ref)
	}
	return k, k.SizeOf(n), nil
}

// Alloc allocates in eden. It returns ErrNeedGC when eden is full so the
// runtime can run a scavenge and retry; objects larger than eden go
// straight to the old generation.
func (h *Heap) Alloc(k *klass.Klass, arrayLen int) (layout.Ref, error) {
	size := k.SizeOf(arrayLen)
	if size > h.edenSize/2 {
		return h.allocOld(k, arrayLen, size)
	}
	if h.edenTop+size > h.edenSize {
		return 0, ErrNeedGC
	}
	off := h.edenTop
	h.edenTop += size
	clear(h.eden[off : off+size])
	ref := h.edenBase + layout.Ref(off)
	h.initHeader(ref, k, arrayLen)
	return ref, nil
}

func (h *Heap) allocOld(k *klass.Klass, arrayLen, size int) (layout.Ref, error) {
	if h.oldTop+size > h.oldSize {
		return 0, ErrOldFull
	}
	off := h.oldTop
	h.oldTop += size
	clear(h.old[off : off+size])
	ref := h.oldBase + layout.Ref(off)
	h.initHeader(ref, k, arrayLen)
	return ref, nil
}

func (h *Heap) initHeader(ref layout.Ref, k *klass.Klass, arrayLen int) {
	h.SetWord(ref, layout.MarkWordOff, layout.MarkWord(0, 0))
	h.SetWord(ref, layout.KlassWordOff, uint64(h.reg.MetaAddr(k)))
	if k.IsArray() {
		h.SetWord(ref, layout.ArrayLenOff, uint64(arrayLen))
	}
}

// RecordOldToYoung notes that the old-generation slot at the given virtual
// address now holds a young reference (called by the runtime write
// barrier — the card-mark analog).
func (h *Heap) RecordOldToYoung(slotAddr layout.Ref) {
	h.oldToYoung[slotAddr] = struct{}{}
}

// UsedYoung reports allocated young bytes (eden plus the live survivor).
func (h *Heap) UsedYoung() int { return h.edenTop + h.survTop }

// UsedOld reports allocated old bytes.
func (h *Heap) UsedOld() int { return h.oldTop }

// ForEachObject walks every object in the volatile heap (eden, the live
// survivor space, and the old generation). The persistent collector uses
// it to find DRAM slots referencing NVM objects.
func (h *Heap) ForEachObject(fn func(ref layout.Ref, k *klass.Klass, size int) bool) error {
	walk := func(base layout.Ref, limit int) error {
		off := 0
		for off < limit {
			ref := base + layout.Ref(off)
			k, size, err := h.sizeOf(ref)
			if err != nil {
				return err
			}
			if !fn(ref, k, size) {
				return nil
			}
			off += size
		}
		return nil
	}
	if err := walk(h.edenBase, h.edenTop); err != nil {
		return err
	}
	if err := walk(h.survBase[1-h.toIdx], h.survTop); err != nil {
		return err
	}
	return walk(h.oldBase, h.oldTop)
}

// RefSlotsOf invokes fn with the absolute slot address and current value
// of every reference slot of the object at ref.
func (h *Heap) RefSlotsOf(ref layout.Ref, k *klass.Klass, fn func(slotAddr layout.Ref, val layout.Ref)) {
	m, off := h.mem(ref)
	pheap.RefSlots(memReader{m}, off, k, func(slotBoff int) {
		fn(ref+layout.Ref(slotBoff), layout.Ref(le64(m[off+slotBoff:])))
	})
}
