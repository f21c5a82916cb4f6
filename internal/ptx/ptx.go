// Package ptx provides undo-log ACID transactions over persistent-heap
// objects — the "simple undo log" the paper adds to its PJH collections
// for a fair comparison with PCJ's always-transactional operations (§6.2),
// and the building block PJO's providers can use for their own protocols.
//
// The log lives in the heap itself (a persistent long array reachable from
// a reserved root), so an interrupted transaction is rolled back by
// recovery on the next load:
//
//	log layout: [0]=committedFlag (0 active, 1 idle), [1]=entryCount,
//	            then entryCount × (slotAddress, oldValue)
//
// Write protocol per mutated word: append (addr, old) to the log, flush
// the entry, fence, bump and flush the count, then perform the store.
// Commit flushes the mutated words, fences, and resets the count.
//
// Primitive stores (WriteWord) write heap words directly; reference
// stores go through WriteRefWord, which runs the SATB pre-write barrier
// and a single atomic machine store, so ptx transactions — and the
// legacy pcollections built on them — stay correct while
// a concurrent pgc.Collect marks. Aborts and rollbacks re-run the barrier
// for the reference entries they restore.
//
// Reference stores also feed the runtime's NVM→DRAM remembered set when
// the heap is attached to one (pheap.RemsetSink): each WriteRefWord
// records a delta in the manager's registered remset-delta buffer —
// registered so a GC safepoint mid-transaction still drains it and sees
// every edge already on the device — and Commit, the transaction's
// durable publication point, publishes whatever the safepoints have not
// already taken. Abort replays corrective records for the rolled-back
// reference slots (exactly as it replays SATB barrier records) and
// publishes those, so the transaction's own deltas are never trusted
// after a rollback and the shared set returns to its pre-transaction
// contents; publication re-derives membership from the restored slot
// values, which is what makes the replay exact.
package ptx

import (
	"fmt"
	"sync"

	"espresso/internal/layout"
	"espresso/internal/pheap"
)

// LogRootName is the reserved root under which each heap's transaction
// log array is registered.
const LogRootName = "espresso/ptx-log"

// DefaultLogEntries bounds the number of word-writes per transaction.
const DefaultLogEntries = 4096

// Manager owns the transaction log of one heap. Transactions are globally
// serialized (PCJ behaves the same way: one fat lock).
type Manager struct {
	mu  sync.Mutex
	h   *pheap.Heap
	log layout.Ref // persistent long array
	cap int

	// rdelta is the manager's registered remset-delta buffer: WriteRefWord
	// records into it, so a safepoint drain mid-transaction observes the
	// transaction's NVM→DRAM edges (they are already on the device), and
	// Commit/Abort publish it at their ends.
	rdelta *pheap.RemsetDeltaBuffer
}

// NewManager creates (or re-attaches to) the heap's transaction log and
// rolls back any transaction that was active when the heap last persisted.
func NewManager(h *pheap.Heap) (*Manager, error) {
	m := &Manager{h: h, cap: DefaultLogEntries, rdelta: h.NewRemsetDeltaBuffer()}
	if ref, ok := h.GetRoot(LogRootName); ok {
		m.log = ref
		if err := m.recover(); err != nil {
			return nil, err
		}
		return m, nil
	}
	arr, err := h.Alloc(h.Registry().PrimArray(layout.FTLong), 2+2*m.cap)
	if err != nil {
		return nil, fmt.Errorf("ptx: allocating log: %w", err)
	}
	m.log = arr
	m.logStore(0, 1) // idle
	m.logStore(1, 0)
	h.FlushRange(arr, 0, 2*layout.WordSize+layout.ArrayHdrBytes)
	if err := h.SetRoot(LogRootName, arr); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Manager) logStore(i int, v uint64) {
	m.h.SetWord(m.log, layout.ElemOff(layout.FTLong, i), v)
}

func (m *Manager) logLoad(i int) uint64 {
	return m.h.GetWord(m.log, layout.ElemOff(layout.FTLong, i))
}

func (m *Manager) flushLogWords(i, n int) {
	m.h.FlushRange(m.log, layout.ElemOff(layout.FTLong, i), n*layout.WordSize)
}

// recover rolls back a transaction that did not commit before the crash.
func (m *Manager) recover() error {
	if m.logLoad(0) == 1 {
		return nil // idle: nothing to do
	}
	count := int(m.logLoad(1))
	for i := count - 1; i >= 0; i-- {
		addr := layout.Ref(m.logLoad(2 + 2*i))
		old := m.logLoad(2 + 2*i + 1)
		off := m.h.OffOf(addr)
		m.h.Device().WriteU64(off, old)
		m.h.Device().Flush(off, 8)
	}
	m.h.Device().Fence()
	m.logStore(1, 0)
	m.logStore(0, 1)
	m.flushLogWords(0, 2)
	return nil
}

// Tx is one open transaction.
type Tx struct {
	m       *Manager
	touched []layout.Ref // slot addresses to flush on commit
	isRef   []bool       // parallel to the log: entry restores a reference slot
	objs    []layout.Ref // parallel: owning object (the barrier's card target)
	closed  bool
}

// Begin opens a transaction, taking the global lock.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	m.logStore(1, 0)
	m.logStore(0, 0) // active
	m.flushLogWords(0, 2)
	return &Tx{m: m}
}

// WriteWord performs a logged store of the 8-byte slot at byte offset
// boff of the persistent object at obj. For reference slots use
// WriteRefWord, which adds the concurrent collector's write barrier.
func (tx *Tx) WriteWord(obj layout.Ref, boff int, val uint64) error {
	return tx.write(obj, boff, val, false)
}

// WriteRefWord is WriteWord for reference slots: the store runs through
// the SATB pre-write barrier (the overwritten referent is recorded in
// the heap's shared buffer and the object's card dirtied) and lands with
// a single atomic machine store, so the concurrent marker never loses a
// snapshot-reachable object to a transactional overwrite and never reads
// a torn slot.
func (tx *Tx) WriteRefWord(obj layout.Ref, boff int, val layout.Ref) error {
	return tx.write(obj, boff, uint64(val), true)
}

func (tx *Tx) write(obj layout.Ref, boff int, val uint64, isRef bool) error {
	m := tx.m
	count := int(m.logLoad(1))
	if count >= m.cap {
		return fmt.Errorf("ptx: transaction log full (%d entries)", m.cap)
	}
	slot := obj + layout.Ref(boff)
	old := m.h.GetWord(obj, boff)
	m.logStore(2+2*count, uint64(slot))
	m.logStore(2+2*count+1, old)
	m.logStore(1, uint64(count+1))
	// The count word and the entry often share a cache line; one flush
	// covering both halves the log's persist cost (the kind of Java-side
	// transaction-library optimization §2.2 anticipates). Ordering within
	// a line is preserved by the line-granular persistence model.
	m.flushLogWordSpan(1, 2+2*count+1)
	if isRef {
		if m.h.ConcurrentMarkActive() {
			m.h.SATBRecordBarrier(obj, old, nil)
		}
		// Remembered-set delta into the manager's registered buffer: a GC
		// safepoint mid-transaction drains it, Commit publishes the rest.
		// The sink classifies the new value (the heap itself cannot tell
		// volatile from persistent); a heap outside any runtime has no
		// sink and no remembered set. Store and delta land drain-atomically
		// (RecordStore), as in core.storeRef.
		if sink := m.h.RemsetSink(); sink != nil {
			add := val != uint64(layout.NullRef) && sink.RefIsVolatile(layout.Ref(val))
			m.rdelta.RecordStore(slot, add, func() {
				m.h.SetWordAtomic(obj, boff, val)
			})
		} else {
			m.h.SetWordAtomic(obj, boff, val)
		}
	} else {
		m.h.SetWord(obj, boff, val)
	}
	tx.touched = append(tx.touched, slot)
	tx.isRef = append(tx.isRef, isRef)
	tx.objs = append(tx.objs, obj)
	return nil
}

// flushLogWordSpan persists log words [lo, hi] with one flush call.
func (m *Manager) flushLogWordSpan(lo, hi int) {
	m.h.FlushRange(m.log, layout.ElemOff(layout.FTLong, lo), (hi-lo+1)*layout.WordSize)
}

// Commit flushes the transaction's stores, retires the log, and
// publishes the transaction's remembered-set deltas — the durable commit
// is the write-combining barrier's transaction-level publication point.
// (A GC safepoint mid-transaction may already have drained some; the
// re-derivation at publication makes the double coverage harmless.)
func (tx *Tx) Commit() {
	m := tx.m
	for _, slot := range tx.touched {
		off := m.h.OffOf(slot)
		m.h.Device().Flush(off, 8)
	}
	m.h.Device().Fence()
	m.logStore(1, 0)
	m.logStore(0, 1)
	m.flushLogWords(0, 2)
	m.rdelta.Publish()
	tx.closed = true
	m.mu.Unlock()
}

// Abort rolls the transaction back. Restored reference slots re-run the
// SATB barrier (the value being rolled back over is the one the marker
// could otherwise lose) and land atomically, like the forward stores.
// The transaction's own remembered-set deltas are never published as
// truth: every restored reference slot gets a corrective record — the
// same replay discipline as the SATB barrier records — and the final
// publication re-derives membership from the restored values, so the
// shared set leaves Abort exactly as it was before the transaction.
func (tx *Tx) Abort() {
	m := tx.m
	sink := m.h.RemsetSink()
	count := int(m.logLoad(1))
	for i := count - 1; i >= 0; i-- {
		addr := layout.Ref(m.logLoad(2 + 2*i))
		old := m.logLoad(2 + 2*i + 1)
		off := m.h.OffOf(addr)
		if i < len(tx.isRef) && tx.isRef[i] {
			if m.h.ConcurrentMarkActive() {
				m.h.SATBRecordBarrier(tx.objs[i], m.h.Device().ReadU64Atomic(off), nil)
			}
			if sink != nil {
				add := layout.Ref(old) != layout.NullRef && sink.RefIsVolatile(layout.Ref(old))
				m.rdelta.RecordStore(addr, add, func() {
					m.h.Device().WriteU64Atomic(off, old)
				})
			} else {
				m.h.Device().WriteU64Atomic(off, old)
			}
		} else {
			m.h.Device().WriteU64(off, old)
		}
		m.h.Device().Flush(off, 8)
	}
	m.h.Device().Fence()
	m.logStore(1, 0)
	m.logStore(0, 1)
	m.flushLogWords(0, 2)
	m.rdelta.Publish()
	tx.closed = true
	m.mu.Unlock()
}

// Run executes fn inside a transaction, committing on nil and aborting on
// error.
func (m *Manager) Run(fn func(tx *Tx) error) error {
	tx := m.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	tx.Commit()
	return nil
}
