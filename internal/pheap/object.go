package pheap

import (
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
)

// Object access and heap parsing. All accessors take virtual addresses
// (layout.Ref) and byte-offsets computed from the klass field tables; the
// type-aware convenience layer lives in internal/core.

// KlassOf resolves the klass of the object at ref.
func (h *Heap) KlassOf(ref layout.Ref) (*klass.Klass, error) {
	off := h.OffOf(ref)
	kaddr := layout.Ref(h.dev.ReadU64(off + layout.KlassWordOff))
	k, ok := h.KlassByAddr(kaddr)
	if !ok {
		return nil, fmt.Errorf("pheap: object %#x has dangling klass word %#x", uint64(ref), uint64(kaddr))
	}
	return k, nil
}

// SizeOfObjectAt decodes the klass and size of the object at device
// offset off.
func (h *Heap) SizeOfObjectAt(off int) (*klass.Klass, int, error) {
	kaddr := layout.Ref(h.dev.ReadU64(off + layout.KlassWordOff))
	k, ok := h.KlassByAddr(kaddr)
	if !ok {
		return nil, 0, fmt.Errorf("pheap: offset %d: dangling klass word %#x", off, uint64(kaddr))
	}
	n := 0
	if k.IsArray() {
		n = int(h.dev.ReadU64(off + layout.ArrayLenOff))
	}
	return k, k.SizeOf(n), nil
}

// ArrayLen reads the length word of the array object at ref.
func (h *Heap) ArrayLen(ref layout.Ref) int {
	return int(h.dev.ReadU64(h.OffOf(ref) + layout.ArrayLenOff))
}

// GetWord loads the 8-byte slot at byte offset boff inside the object.
func (h *Heap) GetWord(ref layout.Ref, boff int) uint64 {
	return h.dev.ReadU64(h.OffOf(ref) + boff)
}

// SetWord stores the 8-byte slot at byte offset boff inside the object.
func (h *Heap) SetWord(ref layout.Ref, boff int, v uint64) {
	h.dev.WriteU64(h.OffOf(ref)+boff, v)
}

// ReadBytesAt fills p from byte offset boff inside the object — one
// device read regardless of length, the bulk path under string and
// primitive-array copies.
func (h *Heap) ReadBytesAt(ref layout.Ref, boff int, p []byte) {
	h.dev.ReadBytes(h.OffOf(ref)+boff, p)
}

// WriteBytesAt stores p at byte offset boff inside the object — one
// device write regardless of length.
func (h *Heap) WriteBytesAt(ref layout.Ref, boff int, p []byte) {
	h.dev.WriteBytes(h.OffOf(ref)+boff, p)
}

// FlushRange persists n bytes at byte offset boff inside the object,
// followed by a fence — the primitive under the field/array/object flush
// APIs of paper §3.5.
func (h *Heap) FlushRange(ref layout.Ref, boff, n int) {
	h.dev.Flush(h.OffOf(ref)+boff, n)
	h.dev.Fence()
}

// ForEachObject walks the data heap in address order, region by region,
// invoking fn for every object including fillers. It stops early if fn
// returns false. The walk relies on the per-region allocation invariant:
// everything below a region's top is a valid object or filler. Regions
// whose top is unset are skipped; humongous objects carry the walk
// across their interior regions (whose table entries hold the sentinel,
// never a parse entry point).
func (h *Heap) ForEachObject(fn func(off int, k *klass.Klass, size int) bool) error {
	dataEnd := h.geo.DataOff + h.geo.DataSize
	off := h.geo.DataOff
	for r := 0; r < h.geo.DataRegions(); r++ {
		start := h.geo.DataOff + r*layout.RegionSize
		if off < start {
			off = start
		}
		top := int(h.regionTops[r].Load())
		if top <= regionTopHumongousCont || top <= off {
			continue
		}
		for off < top {
			k, size, err := h.SizeOfObjectAt(off)
			if err != nil {
				return fmt.Errorf("pheap: heap parse failed: %w", err)
			}
			if size <= 0 || off+size > dataEnd {
				return fmt.Errorf("pheap: heap parse: impossible size %d at offset %d", size, off)
			}
			if !fn(off, k, size) {
				return nil
			}
			off += size
		}
	}
	return nil
}

// RefSlots invokes fn with the byte offset (within the object) of every
// reference slot of an object of klass k at device offset off. It is the
// pointer-iteration primitive shared by the collectors and safety scans.
func RefSlots(dev interface{ ReadU64(int) uint64 }, off int, k *klass.Klass, fn func(slotBoff int)) {
	switch k.Kind {
	case klass.KindInstance:
		for i, f := range k.Fields() {
			if f.Type == layout.FTRef {
				fn(layout.FieldOff(i))
			}
		}
	case klass.KindObjArray:
		n := int(dev.ReadU64(off + layout.ArrayLenOff))
		for i := 0; i < n; i++ {
			fn(layout.ElemOff(layout.FTRef, i))
		}
	case klass.KindPrimArray:
		// no refs
	}
}

// ZeroingScan implements the zeroing safety level (paper §3.4): walk the
// whole heap and nullify every reference that points outside any loaded
// persistent heap, so stale DRAM pointers surface as NullPointerException
// rather than undefined behaviour. keep reports whether a ref is still
// valid (i.e., points into persistent memory). Returns the number of
// nullified slots.
func (h *Heap) ZeroingScan(keep func(layout.Ref) bool) (int, error) {
	nulled := 0
	err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if IsFiller(k) {
			return true
		}
		RefSlots(h.dev, off, k, func(slotBoff int) {
			raw := layout.Ref(h.dev.ReadU64(off + slotBoff))
			// Low link-state tag bits (layout.RefTagMask) are not part of
			// the address: a tagged null (e.g. a persisted Harris delete
			// mark over a nil link) is not a stale pointer, and nulling a
			// tagged slot must preserve its marks — erasing a persisted
			// delete mark would resurrect a committed delete.
			v := layout.UntagRef(raw)
			if v != layout.NullRef && !keep(v) {
				h.dev.WriteU64(off+slotBoff, uint64(layout.RefTag(raw)))
				nulled++
			}
		})
		return true
	})
	if err != nil {
		return nulled, err
	}
	if nulled > 0 {
		// One bulk persist for the scan's stores.
		h.dev.Flush(h.geo.DataOff, h.Top()-h.geo.DataOff)
		h.dev.Fence()
	}
	return nulled, nil
}
