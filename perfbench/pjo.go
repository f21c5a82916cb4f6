package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"espresso"
	"espresso/internal/bench"
	"espresso/internal/h2"
	"espresso/internal/jpa"
	"espresso/internal/jpab"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/pjo"
)

// pjo-crud: the paper's JPAB BasicTest Person entity through
// pjo.Provider on H2 + PJH, each client running single-entity
// transactions on its own stack (see pjoWL) — 40% retrieve, 30% update
// and 30% create or delete (a create while the client's live population
// is below pjoEntities, a delete once it is there, so about 15% each).
// This is the paper's headline path (Figure 16): it touches
// internal/core PNew, bulk field writes and flush batching, internal/h2
// and internal/pjo, and bypasses pindex, pshard and pgc entirely. The
// phase runs for the whole --seconds, far past the 0.2–0.3 s rounds of
// the Fig16 harness.
//
// The population is a few thousand entities per client, so the rows,
// index nodes and entities that requests touch stay in cache, as
// pmap-zipf-read's hot set does. In six runs interleaved with it on a
// 2-CPU VM, a population of 50k, whose working set spills out of the
// private L2, spread two to two and a half times as wide between runs
// on throughput and on every p99.
//
// Oracle. A client is the only writer of its stack, so a DRAM map from
// id to score (names and e-mail derive from the id) is exact: every
// retrieve must read back every field, and so must a restart from the
// images.

const pjoHeapName = "pjo"

var (
	personFirst = fieldIndex(jpab.Person, "firstName")
	personLast  = fieldIndex(jpab.Person, "lastName")
	personEmail = fieldIndex(jpab.Person, "email")
	personScore = fieldIndex(jpab.Person, "score")
)

func fieldIndex(d *jpa.EntityDef, name string) int {
	i, ok := d.FieldIndex(name)
	if !ok {
		panic("perfbench: Person has no field " + name)
	}
	return i
}

// pjoStack is one client's runtime heap, H2 database and provider, with
// the oracle of the entities that client owns.
type pjoStack struct {
	cfg      config
	client   int
	heapSize int
	dbSize   int
	rt       *espresso.Runtime
	db       *h2.DB
	p        *pjo.Provider
	heap     *pheap.Heap
	capacity int

	live  []int64
	score map[int64]float64
	next  int64
	rng   uint64
	buf   []byte

	// timeCalls times each Find and Commit (the per-layer probe).
	timeCalls      bool
	findH, commitH hist
	// dropCommitAt, when positive, makes the dropCommitAt-th update skip
	// its Commit, record the new score in the model anyway and read the
	// entity back (tests).
	dropCommitAt int64
	updates      int64
}

func newPJOStack(cfg config, client int) *pjoStack {
	n := cfg.sizes.pjoEntities
	// Creates are 15% of ops; each allocates an entity and three strings.
	entities := n + int(cfg.clientOps(cfg.sizes.pjoRate)*15/100)
	return &pjoStack{cfg: cfg, client: client, heapSize: 32<<20 + entities*256, dbSize: 32<<20 + entities*64}
}

func (w *pjoStack) setup() error {
	db, err := h2.New(w.dbSize, nvm.Direct)
	if err != nil {
		return err
	}
	rt, err := espresso.Open(espresso.Options{})
	if err != nil {
		return err
	}
	if err := rt.CreateHeap(pjoHeapName, w.heapSize); err != nil {
		return err
	}
	w.rt, w.db = rt, db
	w.heap, _ = rt.Heap(pjoHeapName)
	w.capacity = w.heap.FreeBytes()
	w.p = pjo.NewProvider(rt.Runtime, db)
	if err := w.p.EnsureSchema(jpab.Person); err != nil {
		return err
	}
	w.score = make(map[int64]float64, w.cfg.sizes.pjoEntities)
	w.rng = uint64(w.cfg.seed)*0x9E3779B97F4A7C15 + uint64(w.client) + 1
	const batch = 50
	for w.next < int64(w.cfg.sizes.pjoEntities) {
		w.p.Begin()
		for i := 0; i < batch && w.next < int64(w.cfg.sizes.pjoEntities); i++ {
			if err := w.p.Persist(w.newPerson(w.next)); err != nil {
				return err
			}
			w.score[w.next] = float64(w.next) * 0.5
			w.next++
		}
		if err := w.p.Commit(); err != nil {
			return err
		}
	}
	for id := int64(0); id < w.next; id++ {
		w.live = append(w.live, id)
	}
	return nil
}

func (w *pjoStack) newPerson(id int64) *jpa.Entity {
	e := jpab.Person.NewEntity(id)
	s := strconv.FormatInt(id, 10)
	e.SetValueAt(personFirst, h2.StrV("First"+s))
	e.SetValueAt(personLast, h2.StrV("Last"+s))
	e.SetValueAt(personEmail, h2.StrV("p"+s+"@example.com"))
	e.SetValueAt(personScore, h2.FloatV(float64(id)*0.5))
	return e
}

func (w *pjoStack) find(rec *recorder, parent, id int64) (*jpa.Entity, error) {
	if rec.ring == nil && !w.timeCalls {
		return w.p.Find(jpab.Person, id)
	}
	t0 := nowNS()
	e, err := w.p.Find(jpab.Person, id)
	t1 := nowNS()
	rec.span("pjo.Find", parent, t0, t1, nvm.Stats{})
	if w.timeCalls {
		w.findH.add(uint64(t1 - t0))
	}
	return e, err
}

func (w *pjoStack) commit(rec *recorder, parent int64) error {
	if rec.ring == nil && !w.timeCalls {
		return w.p.Commit()
	}
	var d0 nvm.Stats
	if rec.ring != nil {
		d0 = w.devStats()
	}
	t0 := nowNS()
	err := w.p.Commit()
	t1 := nowNS()
	if rec.ring != nil {
		rec.span("pjo.Commit", parent, t0, t1, w.devStats().Sub(d0))
	}
	if w.timeCalls {
		w.commitH.add(uint64(t1 - t0))
	}
	return err
}

func (w *pjoStack) step(rec *recorder) error {
	x := xorshift(&w.rng)
	op := x % 100
	if op >= 70 || len(w.live) == 0 {
		// Create below the target population and delete at it, so the
		// population holds at pjoEntities whatever the seed.
		op = 85
		if len(w.live) < w.cfg.sizes.pjoEntities {
			op = 70
		}
	}
	i := int((x >> 8) % uint64(max(len(w.live), 1)))
	switch {
	case op < 40: // retrieve
		id := w.live[i]
		t0 := nowNS()
		parent := rec.begin()
		e, err := w.find(rec, parent, id)
		var first, last, email string
		var score float64
		if err == nil && e != nil {
			first, last, email = e.Value(personFirst).S, e.Value(personLast).S, e.Value(personEmail).S
			score = e.Value(personScore).F
		}
		rec.done(opRead, "pjo.retrieve", t0, err)
		if err != nil {
			return nil
		}
		if e == nil {
			return violation("Find(%d): acknowledged entity is missing", id)
		}
		return w.checkPerson(id, first, last, email, score)
	case op < 70: // update
		id := w.live[i]
		t0 := nowNS()
		parent := rec.begin()
		e, err := w.find(rec, parent, id)
		s := float64(x>>20) * 0.25
		if err == nil && e != nil {
			e.SetValueAt(personScore, h2.FloatV(s))
			w.p.Begin()
			if err = w.p.Persist(e); err == nil {
				if w.updates++; w.updates == w.dropCommitAt {
					w.p.Begin() // abandon the transaction
					w.score[id] = s
					return w.checkAll(w.p)
				}
				err = w.commit(rec, parent)
			}
		}
		rec.done(opWrite, "pjo.update", t0, err)
		if e == nil && err == nil {
			return violation("Find(%d) for update: acknowledged entity is missing", id)
		}
		if err == nil {
			w.score[id] = s
			rec.bytes += 8
		}
	case op < 85: // create
		id := w.next
		w.next++
		t0 := nowNS()
		parent := rec.begin()
		w.p.Begin()
		e := w.newPerson(id)
		err := w.p.Persist(e)
		if err == nil {
			err = w.commit(rec, parent)
		}
		rec.done(opWrite, "pjo.create", t0, err)
		if err != nil {
			return nil
		}
		w.score[id] = float64(id) * 0.5
		w.live = append(w.live, id)
		rec.bytes += int64(w.payload(id))
	default: // delete
		id := w.live[i]
		t0 := nowNS()
		parent := rec.begin()
		e, err := w.find(rec, parent, id)
		if err == nil && e != nil {
			w.p.Begin()
			if err = w.p.Remove(e); err == nil {
				err = w.commit(rec, parent)
			}
		}
		rec.done(opDelete, "pjo.delete", t0, err)
		if e == nil && err == nil {
			return violation("Find(%d) for delete: acknowledged entity is missing", id)
		}
		if err == nil {
			delete(w.score, id)
			w.live[i] = w.live[len(w.live)-1]
			w.live = w.live[:len(w.live)-1]
			rec.bytes += 8
		}
	}
	return nil
}

// payload is an entity's user bytes: id, three strings and the score.
func (w *pjoStack) payload(id int64) int {
	n := len(strconv.FormatInt(id, 10))
	return 8 + (5 + n) + (4 + n) + (1 + n + 12) + 8
}

func (w *pjoStack) checkPerson(id int64, first, last, email string, score float64) error {
	w.buf = strconv.AppendInt(append(w.buf[:0], "First"...), id, 10)
	ok := first == string(w.buf)
	w.buf = strconv.AppendInt(append(w.buf[:0], "Last"...), id, 10)
	ok = ok && last == string(w.buf)
	w.buf = append(strconv.AppendInt(append(w.buf[:0], 'p'), id, 10), "@example.com"...)
	ok = ok && email == string(w.buf)
	if want := w.score[id]; !ok || score != want {
		return violation("entity %d read back (%q, %q, %q, %v), want score %v", id, first, last, email, score, want)
	}
	return nil
}

func (w *pjoStack) devStats() nvm.Stats { return w.heap.Device().Stats().Add(w.db.Device().Stats()) }

func (w *pjoStack) verify() error { return w.checkAll(w.p) }

func (w *pjoStack) checkAll(p *pjo.Provider) error {
	for _, id := range w.live {
		e, err := p.Find(jpab.Person, id)
		if err != nil {
			return err
		}
		if e == nil {
			return violation("entity %d: acknowledged entity is missing", id)
		}
		if err := w.checkPerson(id, e.Value(personFirst).S, e.Value(personLast).S,
			e.Value(personEmail).S, e.Value(personScore).F); err != nil {
			return err
		}
	}
	return nil
}

// footprint reports the heap bytes no longer allocatable and the live
// user payload bytes.
func (w *pjoStack) footprint() (used, live int) {
	for _, id := range w.live {
		live += w.payload(id)
	}
	return w.capacity - w.heap.FreeBytes(), live
}

// recover restarts from images of both devices after a clean stop: the
// database reopens (rolling back any open transaction and rebuilding
// its indexes from the row pages), a fresh runtime loads the heap, and a
// new provider attaches. Each restart re-reads every live entity.
func (w *pjoStack) recover(reps int, sys *recorder) ([]time.Duration, error) {
	img := func(d *nvm.Device) []byte { return append([]byte(nil), d.View(0, d.Size())...) }
	dbImg, heapImg := img(w.db.Device()), img(w.heap.Device())
	var times []time.Duration
	for r := 0; r < reps; r++ {
		debug.FreeOSMemory() // drop the last restart's devices before allocating the next
		rt, err := espresso.Open(espresso.Options{})
		if err != nil {
			return nil, err
		}
		hdev := nvm.FromImage(heapImg, nvm.Config{Mode: nvm.Direct})
		if err := rt.NameManager().Register(pjoHeapName, hdev); err != nil {
			return nil, err
		}
		ddev := nvm.FromImage(dbImg, nvm.Config{Mode: nvm.Direct})
		runtime.GC() // settle the Go heap so no collection lands in the timed restart
		t0 := nowNS()
		db, err := h2.Open(ddev)
		if err != nil {
			return nil, err
		}
		if err := rt.LoadHeap(pjoHeapName); err != nil {
			return nil, err
		}
		p := pjo.NewProvider(rt.Runtime, db)
		if err := p.EnsureSchema(jpab.Person); err != nil {
			return nil, err
		}
		t1 := nowNS()
		times = append(times, time.Duration(t1-t0))
		sys.span("recovery.pjo", 0, t0, t1, hdev.Stats().Add(ddev.Stats()))
		if err := w.checkAll(p); err != nil {
			return nil, fmt.Errorf("reopened image: %w", err)
		}
	}
	return times, nil
}

func (w *pjoStack) close() {
	*w = pjoStack{cfg: w.cfg, client: w.client, heapSize: w.heapSize, dbSize: w.dbSize}
}

// pjoWL gives every client its own pjoStack: a provider and its H2
// database are single-threaded, as each thread of a JPA application owns
// its EntityManager. Two clients keep both CPUs of the 2-CPU VM busy, as
// the map workloads do. With one client the other CPU idled and the
// tails and throughput followed other tenants' load: over six runs
// interleaved with sharded-churn, the quartile spreads of pjo-crud
// reached 0.26 of the median against 0.07 for sharded-churn, while two
// one-client processes run side by side stayed within 0.08.
type pjoWL struct {
	cfg    config
	stacks [clients]*pjoStack
	prevGC int // Go GC target to restore on close; 0 before setup
}

// pjoGCPercent is the Go GC target while pjo-crud runs. Its two clients
// allocate entities and strings at nearly 400 MB/s, and the devices, Go
// byte slices, count as live heap, so at the default of 100 the
// allocator walks hundreds of MB of memory between collections. In five
// runs interleaved with the default on a 2-CPU VM, 25 narrowed the
// spread between runs of every p99 from 0.15–0.23 of the median to under
// 0.1, and throughput rose 7%.
const pjoGCPercent = 25

func newPJOWL(cfg config) workload {
	w := &pjoWL{cfg: cfg}
	for c := range w.stacks {
		w.stacks[c] = newPJOStack(cfg, c)
	}
	return w
}

func (w *pjoWL) clients() int { return clients }

func (w *pjoWL) opsPerClient(d time.Duration) int64 {
	return int64(d.Seconds() * float64(w.cfg.sizes.pjoRate))
}

func (w *pjoWL) describe() []string {
	s := w.stacks[0]
	return []string{fmt.Sprintf("pjo-crud entities=%d per client, each client with its own heap, H2 database and provider; entity=jpab.Person mix=40retrieve/30update/30create-or-delete heap_bytes=%d h2_bytes=%d per client",
		w.cfg.sizes.pjoEntities, s.heapSize, s.dbSize)}
}

func (w *pjoWL) setup() error {
	w.prevGC = debug.SetGCPercent(pjoGCPercent)
	for _, s := range w.stacks {
		if err := s.setup(); err != nil {
			return err
		}
	}
	return nil
}

func (w *pjoWL) step(c int, rec *recorder) error { return w.stacks[c].step(rec) }

func (w *pjoWL) devStats() (st nvm.Stats) {
	for _, s := range w.stacks {
		st = st.Add(s.devStats())
	}
	return st
}

// layers runs one probe phase with every Find and Commit timed and each
// provider's phase profile on. The shares are of the clients' summed
// time.
func (w *pjoWL) layers(tr phase, dev nvm.Stats, _ *recorder) (map[string]float64, error) {
	vals := map[string]float64{}
	deviceLayer(vals, dev, float64(tr.attempted()), userBytes(tr))
	var profs [clients]*bench.Breakdown
	for c, s := range w.stacks {
		profs[c] = bench.NewBreakdown()
		s.p.SetProfile(profs[c])
		s.timeCalls = true
		s.findH, s.commitH = hist{}, hist{}
	}
	probe, err := runClosedLoop(clients, w.cfg.sizes.probeOps, time.Hour, false, w.step)
	var findH, commitH hist
	var transform, database time.Duration
	for c, s := range w.stacks {
		s.p.SetProfile(nil)
		s.timeCalls = false
		findH.merge(&s.findH)
		commitH.merge(&s.commitH)
		transform += profs[c].Get("Transformation")
		database += profs[c].Get("Database")
	}
	if err != nil {
		return nil, err
	}
	clientTime := clients * probe.wall.Seconds()
	vals["pjo.commit_us_p50"] = commitH.quantile(0.5) / 1e3
	vals["pjo.find_us_p50"] = findH.quantile(0.5) / 1e3
	vals["pjo.transform_share"] = transform.Seconds() / clientTime
	vals["h2.database_share"] = database.Seconds() / clientTime
	return vals, nil
}

func (w *pjoWL) verify() error {
	for _, s := range w.stacks {
		if err := s.verify(); err != nil {
			return err
		}
	}
	return nil
}

func (w *pjoWL) nvmBytesPerLiveByte() float64 {
	var used, live int
	for _, s := range w.stacks {
		u, l := s.footprint()
		used += u
		live += l
	}
	return float64(used) / float64(live)
}

// recover restarts every client's stack in turn; a restart's time is the
// sum over the stacks.
func (w *pjoWL) recover(reps int, sys *recorder) ([]time.Duration, map[string]float64, error) {
	times := make([]time.Duration, reps)
	for _, s := range w.stacks {
		ts, err := s.recover(reps, sys)
		if err != nil {
			return nil, nil, err
		}
		for r, t := range ts {
			times[r] += t
		}
	}
	return times, nil, nil
}

func (w *pjoWL) close() {
	for _, s := range w.stacks {
		s.close()
	}
	if w.prevGC != 0 {
		debug.SetGCPercent(w.prevGC)
		w.prevGC = 0
	}
}
