package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"espresso"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
	"espresso/internal/pshard"
)

// sharded-churn: a 4-shard ShardedPMap in Tracked
// mode (the devices record which lines were flushed, so a power-cut
// image can be taken), preloaded with shardKeys keys. Two clients run
// 40% insert of a new key, 30% Get and 30% Delete, uniform over their
// live keys — a working set far larger than CPU cache. Each client owns
// a disjoint key range and runs a fixed op count, so the op streams and
// the final key set are the same on every run with one seed. After the
// timed phase the set is power-cut (CrashFlushedOnly images of every
// device), reopened, and every acknowledged write is checked.
//
// No collection runs while clients run: on the current code a shard
// collected repeatedly under churn comes back with wrong values or
// broken links. The traced run collects every shard once after all
// churn, for the pgc numbers.
//
// This workload puts the weight on the allocator, flush/fence, the
// pshard router, compaction and parallel recovery — the layers
// pmap-zipf-read leaves idle — and give pindex write work where
// pmap-zipf-read gives it reads.
//
// Oracle. A client's keys are written only by that client, each key is
// inserted once with value shardValue(key) and possibly deleted later,
// so the client's live-key list is an exact model: every Get must
// return shardValue, every Delete must find its key, and the reopened
// image must hold exactly the live keys with their values.

const (
	shardSetName = "kv"
	shardCount   = 4
	shardKeyBits = 40
)

func shardValue(k int64) int64 { return int64(uint64(k)*0x9E3779B97F4A7C15>>1) ^ 0x5bd1e995 }

// shardStore is the operation set ShardedPMap and a held pshard.Ctx
// share, so the probe phases can replay one op stream on both.
type shardStore interface {
	Put(key, val int64) error
	Lookup(key int64) (int64, bool, error)
	Remove(key int64) (bool, error)
}

type shardedWL struct {
	cfg       config
	shardSize int
	rt        *espresso.Runtime
	s         *espresso.ShardedPMap
	capacity  int
	cl        []*shardClient

	// loseKey, when set, deletes one live key behind the oracle's back
	// just before the power cut (tests).
	loseKey bool
}

type shardClient struct {
	kv     shardStore
	base   int64
	next   int64   // next fresh key offset in this client's range
	live   []int64 // live keys, in no particular order
	unsure map[int64]bool
	rng    uint64

	// Per-layer probe state: a held pshard.Ctx, one pindex.Ctx per shard
	// and the time spent outside the index call.
	pctx     *pshard.Ctx
	subs     [shardCount]*pindex.Ctx
	routeNS  int64
	shardOps [shardCount]int64
}

func newShardedWL(cfg config) workload {
	// Inserts are 40% of ops; each allocates an index node and a value box.
	keys := cfg.sizes.shardKeys + int(clients*cfg.clientOps(cfg.sizes.shardRate)*40/100)
	return &shardedWL{cfg: cfg, shardSize: 16<<20 + keys/shardCount*112}
}

func (w *shardedWL) clients() int { return clients }

func (w *shardedWL) opsPerClient(d time.Duration) int64 {
	return int64(d.Seconds() * float64(w.cfg.sizes.shardRate))
}

func (w *shardedWL) describe() []string {
	return []string{fmt.Sprintf("sharded-churn shards=%d preload_keys=%d mix=40insert/30get/30delete ops_per_client_per_s=%d shard_heap_bytes=%d nvm=tracked",
		shardCount, w.cfg.sizes.shardKeys, w.cfg.sizes.shardRate, w.shardSize)}
}

func (w *shardedWL) setup() error {
	rt, err := espresso.Open(espresso.Options{TrackedNVM: true})
	if err != nil {
		return err
	}
	w.rt = rt
	w.s, err = rt.OpenSharded(shardSetName, espresso.ShardedPMapOptions{
		Shards: shardCount, ShardDataSize: w.shardSize,
		Index: espresso.PMapOptions{InitialBuckets: 1 << 15, MaxBuckets: 1 << 16},
	})
	if err != nil {
		return err
	}
	for i := 0; i < shardCount; i++ {
		w.capacity += w.s.Set().Shard(i).Heap().FreeBytes()
	}
	w.cl = make([]*shardClient, clients)
	for c := range w.cl {
		w.cl[c] = &shardClient{kv: w.s, base: int64(c+1) << shardKeyBits, unsure: map[int64]bool{},
			rng: uint64(w.cfg.seed)*0x9E3779B97F4A7C15 + uint64(c) + 1}
	}
	return parallel(clients, func(c int) error {
		cl := w.cl[c]
		for i := c; i < w.cfg.sizes.shardKeys; i += clients {
			k := cl.base + cl.next
			cl.next++
			if err := w.s.Put(k, shardValue(k)); err != nil {
				return err
			}
			cl.live = append(cl.live, k)
		}
		return nil
	})
}

func (w *shardedWL) step(c int, rec *recorder) error {
	cl := w.cl[c]
	x := xorshift(&cl.rng)
	var err error
	switch op := x % 100; {
	case op < 40 || len(cl.live) == 0:
		k := cl.base + cl.next
		cl.next++
		t0 := nowNS()
		perr := cl.kv.Put(k, shardValue(k))
		rec.done(opWrite, "sharded.Put", t0, perr)
		if perr != nil {
			cl.unsure[k] = true
		} else {
			cl.live = append(cl.live, k)
			rec.bytes += 16 // key and value
		}
	case op < 70:
		k := cl.live[(x>>8)%uint64(len(cl.live))]
		t0 := nowNS()
		v, ok, lerr := cl.kv.Lookup(k)
		rec.done(opRead, "sharded.Lookup", t0, lerr)
		if lerr == nil && (!ok || v != shardValue(k)) {
			err = violation("Lookup(%#x) = %d, %v; want %d", k, v, ok, shardValue(k))
		}
	default:
		i := (x >> 8) % uint64(len(cl.live))
		k := cl.live[i]
		t0 := nowNS()
		ok, rerr := cl.kv.Remove(k)
		rec.done(opDelete, "sharded.Remove", t0, rerr)
		switch {
		case rerr != nil:
			cl.unsure[k] = true
		case !ok:
			err = violation("Remove(%#x) found nothing; the key was acknowledged", k)
		default:
			rec.bytes += 8 // key
		}
		cl.live[i] = cl.live[len(cl.live)-1]
		cl.live = cl.live[:len(cl.live)-1]
	}
	return err
}

func (w *shardedWL) devStats() nvm.Stats {
	var s nvm.Stats
	for i := 0; i < shardCount; i++ {
		s = s.Add(w.s.Set().Shard(i).Heap().Device().Stats())
	}
	return s
}

// layers replays one op stream three times per client: through the
// facade, through a benchmark-held pshard.Ctx, and straight into each
// shard's index inside pshard.Ctx.Do. Facade minus held ctx is the pool
// cost; Do's time outside the index call is the routing and pinning
// cost. Then it collects each shard once for the pgc.* numbers.
func (w *shardedWL) layers(tr phase, dev nvm.Stats, sys *recorder) (map[string]float64, error) {
	vals := map[string]float64{}
	deviceLayer(vals, dev, float64(tr.attempted()), userBytes(tr))

	var boxK [shardCount]*klass.Klass
	for i := range boxK {
		k, ok := w.s.Set().Shard(i).Heap().Registry().Lookup(pshard.BoxKlassName)
		if !ok {
			return nil, fmt.Errorf("shard %d has no %s class", i, pshard.BoxKlassName)
		}
		boxK[i] = k
	}
	for _, cl := range w.cl {
		cl.pctx = w.s.Set().NewCtx()
	}
	defer func() {
		for _, cl := range w.cl {
			cl.kv = w.s
			cl.pctx.Release()
			for i, sub := range cl.subs {
				if sub != nil {
					sub.Release()
					cl.subs[i] = nil
				}
			}
		}
	}()
	probe := func(step func(int, *recorder) error) (phase, error) {
		for c, cl := range w.cl {
			cl.rng = uint64(w.cfg.seed) + uint64(c) + 77
		}
		return runClosedLoop(clients, w.cfg.sizes.probeOps, time.Hour, false, step)
	}
	facade, err := probe(w.step)
	if err != nil {
		return nil, err
	}
	for _, cl := range w.cl {
		cl.kv = cl.pctx
	}
	held, err := probe(w.step)
	if err != nil {
		return nil, err
	}
	direct, err := probe(func(c int, rec *recorder) error { return w.stepIndex(c, rec, &boxK) })
	if err != nil {
		return nil, err
	}
	vals["espresso.pool_ns_per_op"] = meanOpNS(facade) - meanOpNS(held)

	var st pindex.CtxStats
	var al pheap.AllocatorStats
	var route int64
	var perShard [shardCount]int64
	for _, cl := range w.cl {
		for i, sub := range cl.subs {
			if sub != nil {
				st = addCtxStats(st, sub.Stats())
				al = addAllocStats(al, sub.AllocStats())
			}
			perShard[i] += cl.shardOps[i]
		}
		route += cl.routeNS
	}
	ops := direct.attempted()
	vals["pshard.route_ns_per_op"] = float64(route) / float64(ops)
	var most int64
	for _, n := range perShard {
		most = max(most, n)
	}
	vals["pshard.shard_op_skew"] = float64(most) / (float64(ops) / shardCount)
	indexLayer(vals, direct, st, al)

	// Collect each shard once, after all churn, for the pause, mark and
	// copy costs of a churned shard. No collection ran inside the client
	// phase, so none stalled a client: pgc.stall_share is 0.
	var gcs []pgc.Result
	for i := 0; i < shardCount; i++ {
		t0 := nowNS()
		res, err := w.s.GCShard(i)
		t1 := nowNS()
		if err != nil {
			return nil, fmt.Errorf("GCShard(%d): %w", i, err)
		}
		sys.span("pgc.GCShard", 0, t0, t1, res.DeviceStats)
		gcs = append(gcs, res)
	}
	gcLayer(vals, gcs)
	vals["pgc.stall_share"] = 0
	return vals, nil
}

// stepIndex is step with the pshard.Ctx operation unrolled: the Do call
// routes and pins the owning shard, and inside it the op runs on this
// client's own pindex.Ctx for that shard — for a Put, the same value-box
// allocation, persist and publication pshard.Ctx.Put performs. The
// recorder times the index call; the rest of Do counts as routing.
func (w *shardedWL) stepIndex(c int, rec *recorder, boxK *[shardCount]*klass.Klass) error {
	cl := w.cl[c]
	x := xorshift(&cl.rng)
	op := x % 100
	var k int64
	var i uint64
	switch {
	case op < 40 || len(cl.live) == 0:
		op = 0
		k = cl.base + cl.next
		cl.next++
	default:
		i = (x >> 8) % uint64(len(cl.live))
		k = cl.live[i]
	}
	var err error
	var inner int64
	t0 := nowNS()
	derr := cl.pctx.Do(k, func(s int) {
		sh := w.s.Set().Shard(s)
		sub := cl.subs[s]
		if sub == nil {
			sub = sh.Index().NewCtx()
			cl.subs[s] = sub
		}
		cl.shardOps[s]++
		h := sh.Heap()
		t1 := nowNS()
		switch {
		case op < 40:
			var box layout.Ref
			if box, err = sub.Allocator().Alloc(boxK[s], 0); err == nil {
				h.SetWord(box, layout.FieldOff(0), uint64(shardValue(k)))
				h.FlushRange(box, 0, boxK[s].SizeOf(0))
				err = sub.Put(k, box)
			}
			inner = rec.done(opWrite, "pindex.Put", t1, err) - t1
		case op < 70:
			box, ok := sub.Get(k)
			inner = rec.done(opRead, "pindex.Get", t1, nil) - t1
			if !ok || int64(h.GetWord(box, layout.FieldOff(0))) != shardValue(k) {
				err = violation("index Get(%#x) lost the acknowledged value", k)
			}
		default:
			if !sub.Delete(k) {
				err = violation("index Delete(%#x) found nothing; the key was acknowledged", k)
			}
			inner = rec.done(opDelete, "pindex.Delete", t1, nil) - t1
		}
	})
	cl.routeNS += nowNS() - t0 - inner
	if derr != nil {
		return derr
	}
	switch {
	case op < 40:
		if err != nil {
			cl.unsure[k] = true
			return nil
		}
		cl.live = append(cl.live, k)
	case op >= 70 && err == nil:
		cl.live[i] = cl.live[len(cl.live)-1]
		cl.live = cl.live[:len(cl.live)-1]
	}
	if isViolation(err) {
		return err
	}
	return nil
}

// check compares every entry scan yields against the clients' models:
// each entry must be a live key with its value, and every live key must
// appear once.
func (w *shardedWL) check(scan func(fn func(k, v int64) bool)) error {
	want := make([][]bool, len(w.cl))
	left := 0
	for c, cl := range w.cl {
		want[c] = make([]bool, cl.next)
		for _, k := range cl.live {
			if !cl.unsure[k] {
				want[c][k-cl.base] = true
				left++
			}
		}
	}
	var err error
	scan(func(k, v int64) bool {
		c := int(k>>shardKeyBits) - 1
		if c < 0 || c >= len(w.cl) || k-w.cl[c].base >= w.cl[c].next {
			err = violation("entry %#x was never written", k)
			return false
		}
		if w.cl[c].unsure[k] {
			return true
		}
		off := k - w.cl[c].base
		if !want[c][off] {
			err = violation("entry %#x is present, but its delete was acknowledged (or it appears twice)", k)
			return false
		}
		if v != shardValue(k) {
			err = violation("entry %#x = %d, want %d", k, v, shardValue(k))
			return false
		}
		want[c][off] = false
		left--
		return true
	})
	if err != nil {
		return err
	}
	if left != 0 {
		return violation("%d acknowledged keys are missing", left)
	}
	return nil
}

func (w *shardedWL) verify() error { return w.check(w.s.Scan) }

func (w *shardedWL) liveKeys() int {
	n := 0
	for _, cl := range w.cl {
		n += len(cl.live)
	}
	return n
}

func (w *shardedWL) nvmBytesPerLiveByte() float64 {
	free := 0
	for i := 0; i < shardCount; i++ {
		free += w.s.Set().Shard(i).Heap().FreeBytes()
	}
	return float64(w.capacity-free) / float64(16*w.liveKeys())
}

// recover power-cuts the set — CrashFlushedOnly images of the manifest
// and every shard device — then reopens it reps times in a fresh
// runtime, checking the reopened image against the oracle each time.
func (w *shardedWL) recover(reps int, sys *recorder) ([]time.Duration, map[string]float64, error) {
	if w.loseKey {
		k := w.cl[0].live[0]
		if !w.s.Delete(k) {
			return nil, nil, fmt.Errorf("could not drop key %#x", k)
		}
	}
	names := []string{pshard.ManifestName(shardSetName)}
	for i := 0; i < shardCount; i++ {
		names = append(names, pshard.ShardHeapName(shardSetName, i))
	}
	imgs := make([][]byte, len(names))
	for i, name := range names {
		dev, err := w.rt.NameManager().Device(name)
		if err != nil {
			return nil, nil, err
		}
		imgs[i] = dev.CrashImage(nvm.CrashFlushedOnly, 0)
	}
	w.s.Close()
	w.s, w.rt = nil, nil
	for _, cl := range w.cl {
		cl.kv, cl.pctx = nil, nil // the original set's heaps go before the restarts
	}

	vals := map[string]float64{}
	var times []time.Duration
	for r := 0; r < reps; r++ {
		debug.FreeOSMemory() // drop the last restart's devices before allocating the next
		rt, err := espresso.Open(espresso.Options{TrackedNVM: true})
		if err != nil {
			return nil, nil, err
		}
		for i, name := range names {
			if err := rt.NameManager().Register(name, nvm.FromImage(imgs[i], nvm.Config{Mode: nvm.Tracked})); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC() // settle the Go heap so no collection lands in the timed restart
		t0 := nowNS()
		s, err := rt.OpenSharded(shardSetName, espresso.ShardedPMapOptions{})
		if err != nil {
			return nil, nil, err
		}
		t1 := nowNS()
		times = append(times, time.Duration(t1-t0))
		root := sys.span("recovery.sharded", 0, t0, t1, nvm.Stats{})
		var maxMS, sumMS, reads, lines float64
		for i := 0; i < shardCount; i++ {
			rs := s.Set().Shard(i).Recovery()
			ms := float64(rs.WallNS) / 1e6
			maxMS = max(maxMS, ms)
			sumMS += ms
			reads += float64(rs.Dev.Reads)
			lines += float64(rs.Dev.FlushedLines)
			sys.span(fmt.Sprintf("pshard.recover.s%d", i), root, t0, t0+rs.WallNS, rs.Dev)
		}
		keys := float64(s.Len())
		vals["pshard.recovery_shard_ms_max"] = maxMS
		vals["pshard.recovery_shard_ms_sum"] = sumMS
		vals["pshard.recovery_reads_per_key"] = reads / keys
		vals["pshard.recovery_flushed_lines_per_key"] = lines / keys
		err = w.check(s.Scan)
		s.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("reopened image: %w", err)
		}
	}
	return times, vals, nil
}

func (w *shardedWL) close() {
	if w.s != nil {
		w.s.Close()
	}
	*w = shardedWL{cfg: w.cfg, shardSize: w.shardSize}
}
