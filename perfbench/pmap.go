package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"espresso"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
)

// pmap-zipf-read: one runtime heap holding one PMap of pmapKeys keys.
// Two clients run 90% Get, 9% overwrite Put and 1% Delete (each delete
// immediately followed by a Put that re-inserts the key, so the key set
// stays whole), with keys drawn from Zipf(1.1). No GC runs and
// overwrites reuse preallocated value objects, so the allocator and
// collector stay idle; the hot set fits in CPU cache. This is where the
// facade ctx pool, pindex traversal and device read accounting do most
// of the work.
//
// Oracle. Key k is written only by client k mod clients, which publishes
// a version number per write: started[k] before the call, acked[k] after
// it returns, and delVer[k] before a delete. A Get of k that began after
// acked[k] = lo and ended before started[k] = hi must return the value
// of some version in [lo, hi], or nothing only if a delete version lies
// in that window. Values are objects of a 4096-object pool holding their
// own id; version v of key k maps to object valueID(k, v).

const (
	pmapHeapName = "pmap"
	pmapMapName  = "kv"
	pmapPool     = 4096
	pmapStream   = 1 << 20 // pre-drawn Zipf keys per client, cycled
)

// pmapOptions presizes the bucket table, so no doubling runs in a phase.
var pmapOptions = espresso.PMapOptions{InitialBuckets: 1 << 18, MaxBuckets: 1 << 18}

func valueID(k int64, v uint32) int64 { return (k*7919 + int64(v)) % pmapPool }

// kvStore is the operation set PMap and a held pindex.Ctx share, so the
// probe phase can replay one op stream on both.
type kvStore interface {
	Get(key int64) (espresso.Ref, bool)
	Put(key int64, val espresso.Ref) error
	Delete(key int64) bool
}

type pmapWL struct {
	cfg      config
	n        int
	heapSize int
	rt       *espresso.Runtime
	m        *espresso.PMap
	heap     *pheap.Heap
	capacity int
	valF     espresso.FieldRef
	pool     []espresso.Ref

	acked, started, delVer []atomic.Uint32

	cl []*pmapClient
	// dropWriteAt, when positive, makes client 0 skip the store call of
	// its dropWriteAt-th write, acknowledge it anyway and read the key
	// back (tests).
	dropWriteAt int64
}

type pmapClient struct {
	kv     kvStore
	keys   []int32
	pos    int
	rng    uint64
	writes int64
}

func newPMapWL(cfg config) workload {
	n := cfg.sizes.pmapKeys
	w := &pmapWL{cfg: cfg, n: n, heapSize: 64<<20 + n*128, cl: make([]*pmapClient, clients)}
	for c := range w.cl {
		w.cl[c] = &pmapClient{rng: uint64(cfg.seed)*0x9E3779B97F4A7C15 + uint64(c) + 1,
			keys: zipfStream(cfg.seed*131+int64(c), n, pmapStream)}
	}
	return w
}

func (w *pmapWL) clients() int { return clients }

func (w *pmapWL) opsPerClient(d time.Duration) int64 {
	return int64(d.Seconds() * float64(w.cfg.sizes.pmapRate))
}

func (w *pmapWL) describe() []string {
	return []string{fmt.Sprintf("pmap-zipf-read keys=%d zipf_s=1.1 mix=90get/9put/1delete+reput ops_per_client_per_s=%d heap_bytes=%d value_pool=%d",
		w.n, w.cfg.sizes.pmapRate, w.heapSize, pmapPool)}
}

func (w *pmapWL) setup() error {
	rt, err := espresso.Open(espresso.Options{})
	if err != nil {
		return err
	}
	w.rt = rt
	if err := rt.CreateHeap(pmapHeapName, w.heapSize); err != nil {
		return err
	}
	w.heap, _ = rt.Heap(pmapHeapName)
	w.capacity = w.heap.FreeBytes()
	w.m, err = rt.OpenPMap(pmapHeapName, pmapMapName, pmapOptions)
	if err != nil {
		return err
	}
	valK := espresso.MustClass("perfbench/Value", nil, espresso.Long("id"))
	w.pool = make([]espresso.Ref, pmapPool)
	for i := range w.pool {
		ref, err := rt.PNew(valK)
		if err != nil {
			return err
		}
		if i == 0 {
			w.valF = rt.MustResolveField(valK, "id")
		}
		rt.SetLongFast(ref, w.valF, int64(i))
		if err := rt.FlushObject(ref); err != nil {
			return err
		}
		w.pool[i] = ref
	}
	w.acked = make([]atomic.Uint32, w.n)
	w.started = make([]atomic.Uint32, w.n)
	w.delVer = make([]atomic.Uint32, w.n)
	err = parallel(clients, func(c int) error {
		for k := int64(c); k < int64(w.n); k += clients {
			if err := w.m.Put(k, w.pool[valueID(k, 1)]); err != nil {
				return err
			}
			w.started[k].Store(1)
			w.acked[k].Store(1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, cl := range w.cl {
		cl.kv = w.m
	}
	return nil
}

// zipfStream pre-draws n keys from Zipf(1.1) over [0, keys), so the
// timed loop pays an array load instead of the sampler's exp/log.
func zipfStream(seed int64, keys, n int) []int32 {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, 1.1, 1, uint64(keys-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// xorshift is each client's private op-mix generator.
func xorshift(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

func (w *pmapWL) step(c int, rec *recorder) error {
	cl := w.cl[c]
	k := int64(cl.keys[cl.pos])
	cl.pos++
	if cl.pos == len(cl.keys) {
		cl.pos = 0
	}
	x := xorshift(&cl.rng) % 1000
	if x < 900 {
		return w.get(cl, rec, k)
	}
	// Writes go to a key this client owns: the nearest one at or below k.
	k -= k % clients
	k += int64(c)
	if k >= int64(w.n) {
		k -= clients
	}
	if x < 990 {
		return w.put(c, cl, rec, k)
	}
	if err := w.del(cl, rec, k); err != nil {
		return err
	}
	return w.put(c, cl, rec, k)
}

func (w *pmapWL) get(cl *pmapClient, rec *recorder, k int64) error {
	lo := w.acked[k].Load()
	t0 := nowNS()
	ref, ok := cl.kv.Get(k)
	rec.done(opRead, "pmap.Get", t0, nil)
	hi := w.started[k].Load()
	if !ok {
		if d := w.delVer[k].Load(); d < lo {
			return violation("Get(%d) found nothing; acknowledged versions %d..%d, last delete %d", k, lo, hi, d)
		}
		return nil
	}
	id := w.rt.GetLongFast(ref, w.valF)
	for v := lo; v <= hi; v++ {
		if id == valueID(k, v) {
			return nil
		}
	}
	return violation("Get(%d) returned value %d; no version in %d..%d has it", k, id, lo, hi)
}

func (w *pmapWL) put(c int, cl *pmapClient, rec *recorder, k int64) error {
	v := w.started[k].Load() + 1
	w.started[k].Store(v)
	cl.writes++
	if c == 0 && cl.writes == w.dropWriteAt {
		w.acked[k].Store(v)
		return w.get(cl, rec, k)
	}
	t0 := nowNS()
	err := cl.kv.Put(k, w.pool[valueID(k, v)])
	rec.done(opWrite, "pmap.Put", t0, err)
	if err == nil {
		w.acked[k].Store(v)
		rec.bytes += 16 // key and value
	}
	return nil
}

func (w *pmapWL) del(cl *pmapClient, rec *recorder, k int64) error {
	prev := w.started[k].Load()
	certain := w.acked[k].Load() == prev && w.delVer[k].Load() != prev
	v := prev + 1
	w.delVer[k].Store(v)
	w.started[k].Store(v)
	t0 := nowNS()
	ok := cl.kv.Delete(k)
	rec.done(opDelete, "pmap.Delete", t0, nil)
	if !ok && certain {
		return violation("Delete(%d) found nothing; version %d was acknowledged", k, prev)
	}
	w.acked[k].Store(v)
	rec.bytes += 8 // key
	return nil
}

func (w *pmapWL) devStats() nvm.Stats { return w.heap.Device().Stats() }

// layers replays one op stream twice per client, through the facade
// and through a benchmark-held pindex.Ctx, to split the facade's pool
// cost from index work, and reads the held ctx's own counters.
func (w *pmapWL) layers(tr phase, dev nvm.Stats, _ *recorder) (map[string]float64, error) {
	vals := map[string]float64{}
	deviceLayer(vals, dev, float64(tr.attempted()), userBytes(tr))

	ctxs := make([]*pindex.Ctx, clients)
	for c := range ctxs {
		ctxs[c] = w.m.Index().NewCtx()
	}
	defer func() {
		for _, c := range ctxs {
			c.Release()
		}
	}()
	probe := func(held bool) (phase, error) {
		for c, cl := range w.cl {
			cl.pos, cl.rng = 0, uint64(w.cfg.seed)+uint64(c)+77
			cl.kv = w.m
			if held {
				cl.kv = ctxs[c]
			}
		}
		defer func() {
			for _, cl := range w.cl {
				cl.kv = w.m
			}
		}()
		return runClosedLoop(clients, w.cfg.sizes.probeOps, time.Hour, false, w.step)
	}
	facade, err := probe(false)
	if err != nil {
		return nil, err
	}
	st0 := make([]pindex.CtxStats, clients)
	al0 := make([]pheap.AllocatorStats, clients)
	for c, x := range ctxs {
		st0[c], al0[c] = x.Stats(), x.AllocStats()
	}
	held, err := probe(true)
	if err != nil {
		return nil, err
	}
	var st pindex.CtxStats
	var al pheap.AllocatorStats
	for c, x := range ctxs {
		st = addCtxStats(st, subCtxStats(x.Stats(), st0[c]))
		al = addAllocStats(al, subAllocStats(x.AllocStats(), al0[c]))
	}
	vals["espresso.pool_ns_per_op"] = meanOpNS(facade) - meanOpNS(held)
	indexLayer(vals, held, st, al)
	return vals, nil
}

func (w *pmapWL) verify() error {
	if err := parallel(clients, func(c int) error {
		for k := int64(c); k < int64(w.n); k += clients {
			v := w.acked[k].Load()
			if w.started[k].Load() != v {
				continue // the last write failed: either outcome is legal
			}
			ref, ok := w.m.Get(k)
			if !ok {
				return violation("final Get(%d): acknowledged version %d is missing", k, v)
			}
			if id := w.rt.GetLongFast(ref, w.valF); id != valueID(k, v) {
				return violation("final Get(%d) = value %d, want %d (version %d)", k, id, valueID(k, v), v)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if got := w.m.Len(); got != w.n {
		return violation("Len() = %d, want %d", got, w.n)
	}
	return nil
}

func (w *pmapWL) nvmBytesPerLiveByte() float64 {
	return float64(w.capacity-w.heap.FreeBytes()) / float64(16*w.n)
}

// recover restarts from the heap's image after a clean stop: a fresh
// runtime loads the heap and reopens the map (which runs the index
// recovery walk over every entry). Each restart checks the entry count
// and every 64th key.
func (w *pmapWL) recover(reps int, sys *recorder) ([]time.Duration, map[string]float64, error) {
	dev := w.heap.Device()
	img := append([]byte(nil), dev.View(0, dev.Size())...)
	var times []time.Duration
	for i := 0; i < reps; i++ {
		debug.FreeOSMemory() // drop the last restart's devices before allocating the next
		rt, err := espresso.Open(espresso.Options{})
		if err != nil {
			return nil, nil, err
		}
		re := nvm.FromImage(img, nvm.Config{Mode: nvm.Direct})
		if err := rt.NameManager().Register(pmapHeapName, re); err != nil {
			return nil, nil, err
		}
		runtime.GC() // settle the Go heap so no collection lands in the timed restart
		t0 := nowNS()
		if err := rt.LoadHeap(pmapHeapName); err != nil {
			return nil, nil, err
		}
		m, err := rt.OpenPMap(pmapHeapName, pmapMapName, pmapOptions)
		if err != nil {
			return nil, nil, err
		}
		t1 := nowNS()
		times = append(times, time.Duration(t1-t0))
		sys.span("recovery.pmap", 0, t0, t1, re.Stats())
		if m.Len() != w.n {
			return nil, nil, violation("reopened Len() = %d, want %d", m.Len(), w.n)
		}
		for k := int64(0); k < int64(w.n); k += 64 {
			ref, ok := m.Get(k)
			if !ok || rt.GetLongFast(ref, w.valF) != valueID(k, w.acked[k].Load()) {
				return nil, nil, violation("reopened Get(%d) lost acknowledged version %d", k, w.acked[k].Load())
			}
		}
	}
	return times, nil, nil
}

func (w *pmapWL) close() { *w = pmapWL{cfg: w.cfg} }

// parallel runs fn(0..n-1) on n goroutines and joins the first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
