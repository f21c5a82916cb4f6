package experiments

import (
	"fmt"
	"io"
	"time"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
	"espresso/internal/telemetry/blackbox"
)

// The blackbox experiment enforces the flight recorder's two contracts
// (docs/observability.md):
//
//  1. Crash safety: a deterministic workload — create, allocation
//     bursts, an STW collection, a concurrent collection — is crashed at
//     EVERY flush boundary (plus a matrix of random-eviction seeds), and
//     the journal decoded from each crash image must be a checksum-valid,
//     sequence-contiguous strict prefix of the DRAM mirror oracle of that
//     same run. The decoder may truncate a torn tail; it must never
//     fabricate, reorder, or resurrect an event. Each crashed image must
//     also reload (pheap.Load + pgc recovery) and accept fresh appends.
//  2. Overhead: recording costs exactly one line write + one line flush
//     per event and NOTHING else — per workload, fences and reads must be
//     bit-identical off vs on, and writes/flushed-lines must differ by
//     exactly the number of events journaled. These are hard in-run
//     equalities; the absolute per-op device costs also land in the row
//     JSON that CI's bench gate compares against BENCH_blackbox.json.

// BlackboxRow is one (series, workload) measurement of the off/on matrix.
type BlackboxRow struct {
	Series       string  `json:"series"` // "off" or "on"
	Op           string  `json:"op"`     // "alloc", "kvput", "gccycle"
	Ops          int     `json:"ops"`
	Events       int     `json:"events"` // journal records appended during the window
	WallNsPerOp  float64 `json:"wall_ns_per_op"`
	DevReads     float64 `json:"dev_reads_per_op"`
	DevWrites    float64 `json:"dev_writes_per_op"`
	FlushedLines float64 `json:"flushed_lines_per_op"`
	Fences       float64 `json:"fences_per_op"`

	// raw is the undivided device delta — the contract gate compares
	// these exactly, immune to per-op float rounding.
	raw nvm.Stats
}

// BlackboxReport summarizes the crash sweep; Timeline is the full
// (uncrashed) run's decoded journal — CI uploads it as the failure
// artifact so a gate trip shows exactly what the recorder saw.
type BlackboxReport struct {
	CrashPoints  int               `json:"crash_points"`  // flush boundaries swept
	EvictionRuns int               `json:"eviction_runs"` // random-eviction crash images checked
	OracleEvents int               `json:"oracle_events"` // events the clean run journals
	ReloadChecks int               `json:"reload_checks"` // crash images reloaded + re-appended
	Timeline     blackbox.Timeline `json:"timeline"`
}

// crashAt is the panic payload the flush hook throws to simulate power
// loss at one exact flush boundary.
type crashAt struct{ k uint64 }

// blackboxWorkload drives one deterministic recorder-instrumented run:
// an allocation burst (PLAB handoffs), an STW collection, a second
// burst, and a single-worker concurrent collection — so the flush sweep
// crosses allocation, marking, compaction, and redo-commit boundaries.
func blackboxWorkload(h *pheap.Heap, reg *klass.Registry) error {
	node, err := reg.Define(klass.MustInstance("blackbox/Node", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef}))
	if err != nil {
		return err
	}
	burst := func(n int, root string) error {
		var prev layout.Ref
		for i := 0; i < n; i++ {
			ref, err := h.Alloc(node, 0)
			if err != nil {
				return err
			}
			h.SetWord(ref, layout.FieldOff(0), uint64(i))
			if i%2 == 0 { // odd allocations stay garbage for the collections
				h.SetWord(ref, layout.FieldOff(1), uint64(prev))
				prev = ref
			}
		}
		return h.SetRoot(root, prev)
	}
	if err := burst(96, "chain-a"); err != nil {
		return err
	}
	if _, err := pgc.Collect(h, pgc.NoRoots{}, nil, 1); err != nil {
		return err
	}
	if err := burst(96, "chain-b"); err != nil {
		return err
	}
	_, err = pgc.Collect(h, pgc.NoRoots{}, pgc.StoppedWorld{}, 1)
	return err
}

// newBlackboxHeap creates the sweep's tracked heap with its recorder and
// DRAM mirror attached. Setup flushes (heap format, ring format) happen
// before the caller installs the crash hook, so the sweep counts only
// workload boundaries.
func newBlackboxHeap(mirror *[]blackbox.Record) (*pheap.Heap, *klass.Registry, error) {
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{
		Name:     "blackbox",
		DataSize: 1 << 20,
		Mode:     nvm.Tracked,
	})
	if err != nil {
		return nil, nil, err
	}
	r, err := h.EnableFlightRecorder()
	if err != nil {
		return nil, nil, err
	}
	r.SetMirror(func(rec blackbox.Record) { *mirror = append(*mirror, rec) })
	return h, reg, nil
}

// checkPrefix verifies tl against the run's mirror: every decoded record
// matches the mirror at its sequence number, and the decode is
// gap-free. Returns an error naming the first violation.
func checkPrefix(tl blackbox.Timeline, mirror []blackbox.Record, what string) error {
	for i, e := range tl.Events {
		if e.Seq == 0 || e.Seq > uint64(len(mirror)) {
			return fmt.Errorf("blackbox %s: decoded seq %d beyond the %d-event oracle (fabricated record)",
				what, e.Seq, len(mirror))
		}
		m := mirror[e.Seq-1]
		if e.Kind != m.Kind || e.P0 != m.P0 || e.P1 != m.P1 || e.P2 != m.P2 {
			return fmt.Errorf("blackbox %s: decoded seq %d = kind %s p=(%d,%d,%d); oracle has kind %s p=(%d,%d,%d)",
				what, e.Seq, blackbox.KindName(e.Kind), e.P0, e.P1, e.P2,
				blackbox.KindName(m.Kind), m.P0, m.P1, m.P2)
		}
		if i > 0 && e.Seq != tl.Events[i-1].Seq+1 {
			return fmt.Errorf("blackbox %s: sequence gap %d -> %d survived decoding",
				what, tl.Events[i-1].Seq, e.Seq)
		}
	}
	return nil
}

// crashRun replays the workload with a crash injected at flush boundary
// k (counted from hook install) and returns the crash image plus the
// run's own mirror. The panic unwinds whatever the workload was doing —
// exactly what power loss does.
func crashRun(k uint64) (img []byte, mirror []blackbox.Record, err error) {
	h, reg, err := newBlackboxHeap(&mirror)
	if err != nil {
		return nil, nil, err
	}
	dev := h.Device()
	var flushes uint64
	dev.SetFlushHook(func(uint64) {
		flushes++
		if flushes == k {
			panic(crashAt{k})
		}
	})
	err = func() (werr error) {
		defer func() {
			if p := recover(); p != nil {
				if _, ok := p.(crashAt); !ok {
					panic(p)
				}
			}
		}()
		return blackboxWorkload(h, reg)
	}()
	dev.SetFlushHook(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("blackbox: workload failed before crash point %d: %w", k, err)
	}
	return dev.CrashImage(nvm.CrashFlushedOnly, 0), mirror, nil
}

// BlackboxCrashSweep runs contract 1: decode-after-crash at every flush
// boundary, random-eviction images at a coarse stride, and reload
// verification. Hard-fails on the first violated prefix.
func BlackboxCrashSweep() (BlackboxReport, error) {
	var report BlackboxReport

	// Clean run: count flush boundaries, capture the oracle, and keep the
	// full decoded timeline for the report/artifact.
	var mirror []blackbox.Record
	h, reg, err := newBlackboxHeap(&mirror)
	if err != nil {
		return report, err
	}
	dev := h.Device()
	var total uint64
	dev.SetFlushHook(func(uint64) { total++ })
	if err := blackboxWorkload(h, reg); err != nil {
		return report, err
	}
	dev.SetFlushHook(nil)
	geo := h.Geo()
	tl, err := blackbox.Decode(dev, geo.BlackboxOff, geo.BlackboxSize)
	if err != nil {
		return report, err
	}
	if err := checkPrefix(tl, mirror, "clean run"); err != nil {
		return report, err
	}
	if len(tl.Events) != len(mirror) {
		return report, fmt.Errorf("blackbox: clean run decoded %d of %d journaled events", len(tl.Events), len(mirror))
	}
	report.OracleEvents = len(mirror)
	report.Timeline = tl

	for k := uint64(1); k <= total; k++ {
		img, runMirror, err := crashRun(k)
		if err != nil {
			return report, err
		}
		dead := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
		ctl, err := blackbox.Decode(dead, geo.BlackboxOff, geo.BlackboxSize)
		if err != nil {
			return report, fmt.Errorf("blackbox: crash at flush %d: %w", k, err)
		}
		what := fmt.Sprintf("crash at flush %d/%d", k, total)
		if err := checkPrefix(ctl, runMirror, what); err != nil {
			return report, err
		}
		report.CrashPoints++

		// Random-eviction images at a coarse stride: unflushed lines
		// randomly survive or vanish, the prefix rule must hold anyway.
		// Eviction is applied to the crashing device itself (a flushed-only
		// image has already lost its unflushed lines), so the run is
		// rebuilt per seed.
		if k%16 == 0 || k == total {
			for seed := int64(1); seed <= 3; seed++ {
				eimg, emirror, err := crashRunEvict(k, seed)
				if err != nil {
					return report, err
				}
				ed := nvm.FromImage(eimg, nvm.Config{Mode: nvm.Tracked})
				etl, err := blackbox.Decode(ed, geo.BlackboxOff, geo.BlackboxSize)
				if err != nil {
					return report, fmt.Errorf("blackbox: eviction crash at flush %d seed %d: %w", k, seed, err)
				}
				if err := checkPrefix(etl, emirror, fmt.Sprintf("eviction crash at flush %d seed %d", k, seed)); err != nil {
					return report, err
				}
				report.EvictionRuns++
			}
		}

		// Reload verification at a coarse stride: the crashed image loads,
		// recovers, and its journal keeps accepting appends that decode
		// contiguously after the survivors.
		if k%8 == 0 || k == total {
			if err := reloadCheck(img, geo); err != nil {
				return report, fmt.Errorf("blackbox: crash at flush %d: %w", k, err)
			}
			report.ReloadChecks++
		}
	}
	return report, nil
}

// crashRunEvict is crashRun with a random-eviction crash image: lines
// written but never flushed may survive.
func crashRunEvict(k uint64, seed int64) (img []byte, mirror []blackbox.Record, err error) {
	h, reg, err := newBlackboxHeap(&mirror)
	if err != nil {
		return nil, nil, err
	}
	dev := h.Device()
	var flushes uint64
	dev.SetFlushHook(func(uint64) {
		flushes++
		if flushes == k {
			panic(crashAt{k})
		}
	})
	err = func() (werr error) {
		defer func() {
			if p := recover(); p != nil {
				if _, ok := p.(crashAt); !ok {
					panic(p)
				}
			}
		}()
		return blackboxWorkload(h, reg)
	}()
	dev.SetFlushHook(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("blackbox: workload failed before eviction crash point %d: %w", k, err)
	}
	return dev.CrashImage(nvm.CrashRandomEviction, seed), mirror, nil
}

// reloadCheck loads a crash image the way a restart would, finishes any
// interrupted collection, and verifies the journal accepts and decodes
// fresh appends.
func reloadCheck(img []byte, geo pheap.Geometry) error {
	dev := nvm.FromImage(append([]byte(nil), img...), nvm.Config{Mode: nvm.Tracked})
	h, err := pheap.Load(dev, klass.NewRegistry())
	if err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	if _, _, err := pgc.RecoverIfNeeded(h); err != nil {
		return fmt.Errorf("reload recovery: %w", err)
	}
	r, err := h.EnableFlightRecorder()
	if err != nil {
		return fmt.Errorf("reload recorder: %w", err)
	}
	before := r.Seq()
	r.Append(blackbox.EvHeapLoad, h.GlobalTS(), 0, 0)
	tl, err := blackbox.Decode(dev, geo.BlackboxOff, geo.BlackboxSize)
	if err != nil {
		return fmt.Errorf("reload decode: %w", err)
	}
	if len(tl.Events) == 0 || tl.Events[len(tl.Events)-1].Seq != before+1 {
		return fmt.Errorf("reload: post-reload append (seq %d) did not decode as the tail", before+1)
	}
	for i := 1; i < len(tl.Events); i++ {
		if tl.Events[i].Seq != tl.Events[i-1].Seq+1 {
			return fmt.Errorf("reload: sequence gap %d -> %d after re-append",
				tl.Events[i-1].Seq, tl.Events[i].Seq)
		}
	}
	return nil
}

// Blackbox runs the crash sweep plus the off/on overhead matrix.
func Blackbox(scale Scale) ([]BlackboxRow, BlackboxReport, error) {
	report, err := BlackboxCrashSweep()
	if err != nil {
		return nil, report, err
	}
	var rows []BlackboxRow
	for _, op := range []string{"alloc", "kvput", "gccycle"} {
		var off, on BlackboxRow
		for _, enabled := range []bool{false, true} {
			row, err := runBlackboxOp(op, enabled, scale)
			if err != nil {
				return nil, report, err
			}
			if enabled {
				on = row
			} else {
				off = row
			}
			rows = append(rows, row)
		}
		// The overhead contract, exactly: per run, recording adds one
		// write and one flushed line per event and nothing else — and
		// never a fence or a read. Compared on raw counts, to the word.
		ev := uint64(on.Events)
		if on.raw.Fences != off.raw.Fences || on.raw.Reads != off.raw.Reads ||
			on.raw.Writes != off.raw.Writes+ev || on.raw.FlushedLines != off.raw.FlushedLines+ev {
			return nil, report, fmt.Errorf(
				"blackbox %s: recorder device cost off-contract (%d events): off r/w/l/f %d/%d/%d/%d, on %d/%d/%d/%d",
				op, on.Events,
				off.raw.Reads, off.raw.Writes, off.raw.FlushedLines, off.raw.Fences,
				on.raw.Reads, on.raw.Writes, on.raw.FlushedLines, on.raw.Fences)
		}
		// Mutator workloads journal only at region granularity (PLAB
		// dispenses) — orders of magnitude below one event per op. A
		// violation means an emission point slipped onto a per-op path.
		if op != "gccycle" && on.Events > on.Ops/100 {
			return nil, report, fmt.Errorf("blackbox %s: %d events for %d ops — emission must stay at region/cycle granularity", op, on.Events, on.Ops)
		}
	}
	return rows, report, nil
}

func runBlackboxOp(op string, enabled bool, scale Scale) (BlackboxRow, error) {
	series := "off"
	if enabled {
		series = "on"
	}
	var row BlackboxRow
	var err error
	switch op {
	case "alloc":
		row, err = blackboxAllocOp(enabled, scale.div(200000))
	case "kvput":
		row, err = blackboxKVPutOp(enabled, scale.div(100000))
	case "gccycle":
		row, err = blackboxGCCycleOp(enabled, scale.div(50000))
	default:
		return row, fmt.Errorf("blackbox: unknown op %q", op)
	}
	if err != nil {
		return row, fmt.Errorf("blackbox %s/%s: %w", op, series, err)
	}
	row.Series, row.Op = series, op
	return row, nil
}

func finishBlackboxRow(n, events int, wall time.Duration, d nvm.Stats) BlackboxRow {
	return BlackboxRow{
		Ops:          n,
		Events:       events,
		WallNsPerOp:  float64(wall.Nanoseconds()) / float64(n),
		DevReads:     float64(d.Reads) / float64(n),
		DevWrites:    float64(d.Writes) / float64(n),
		FlushedLines: float64(d.FlushedLines) / float64(n),
		Fences:       float64(d.Fences) / float64(n),
		raw:          d,
	}
}

// recorderSeq reports the journal sequence (0 when disabled), for
// counting the events a measurement window appended.
func recorderSeq(h *pheap.Heap) uint64 {
	return h.FlightRecorder().Seq()
}

func blackboxAllocOp(enabled bool, n int) (BlackboxRow, error) {
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{
		DataSize: n*48 + 8*layout.RegionSize,
		Mode:     nvm.Direct,
	})
	if err != nil {
		return BlackboxRow{}, err
	}
	if enabled {
		if _, err := h.EnableFlightRecorder(); err != nil {
			return BlackboxRow{}, err
		}
	}
	node, err := reg.Define(klass.MustInstance("blackbox/Obj", nil,
		klass.Field{Name: "a", Type: layout.FTLong},
		klass.Field{Name: "b", Type: layout.FTLong}))
	if err != nil {
		return BlackboxRow{}, err
	}
	dev := h.Device()
	seq0 := recorderSeq(h)
	s0 := dev.Stats()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := h.Alloc(node, 0); err != nil {
			return BlackboxRow{}, err
		}
	}
	wall := time.Since(t0)
	return finishBlackboxRow(n, int(recorderSeq(h)-seq0), wall, dev.Stats().Sub(s0)), nil
}

func blackboxKVPutOp(enabled bool, n int) (BlackboxRow, error) {
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{
		DataSize: n*64 + 16*layout.RegionSize,
		Mode:     nvm.Direct,
	})
	if err != nil {
		return BlackboxRow{}, err
	}
	if enabled {
		if _, err := h.EnableFlightRecorder(); err != nil {
			return BlackboxRow{}, err
		}
	}
	ix, err := pindex.Open(h, pindex.NoPin{}, "bench", pindex.Options{
		InitialBuckets: 1024,
		MaxLoadFactor:  64,
	})
	if err != nil {
		return BlackboxRow{}, err
	}
	c := ix.NewCtx()
	defer c.Release()
	dev := h.Device()
	seq0 := recorderSeq(h)
	s0 := dev.Stats()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := c.Put(int64(i), 0); err != nil {
			return BlackboxRow{}, err
		}
	}
	wall := time.Since(t0)
	return finishBlackboxRow(n, int(recorderSeq(h)-seq0), wall, dev.Stats().Sub(s0)), nil
}

func blackboxGCCycleOp(enabled bool, n int) (BlackboxRow, error) {
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{
		DataSize: n*96 + 8*layout.RegionSize,
		Mode:     nvm.Direct,
	})
	if err != nil {
		return BlackboxRow{}, err
	}
	if enabled {
		if _, err := h.EnableFlightRecorder(); err != nil {
			return BlackboxRow{}, err
		}
	}
	node, err := reg.Define(klass.MustInstance("blackbox/GCNode", nil,
		klass.Field{Name: "next", Type: layout.FTRef},
		klass.Field{Name: "pad", Type: layout.FTLong}))
	if err != nil {
		return BlackboxRow{}, err
	}
	var prev layout.Ref
	for i := 0; i < n; i++ {
		if _, err := h.Alloc(node, 0); err != nil { // garbage
			return BlackboxRow{}, err
		}
		ref, err := h.Alloc(node, 0)
		if err != nil {
			return BlackboxRow{}, err
		}
		h.SetWord(ref, layout.FieldOff(0), uint64(prev))
		prev = ref
	}
	if err := h.SetRoot("chain", prev); err != nil {
		return BlackboxRow{}, err
	}
	dev := h.Device()
	seq0 := recorderSeq(h)
	s0 := dev.Stats()
	t0 := time.Now()
	if _, err := pgc.Collect(h, pgc.NoRoots{}, nil, 1); err != nil {
		return BlackboxRow{}, err
	}
	wall := time.Since(t0)
	// One cycle; per-op figures are per collection, not per object.
	return finishBlackboxRow(1, int(recorderSeq(h)-seq0), wall, dev.Stats().Sub(s0)), nil
}

// PrintBlackbox renders the sweep summary and the off/on matrix.
func PrintBlackbox(w io.Writer, rows []BlackboxRow, report BlackboxReport) {
	fmt.Fprintf(w, "Flight recorder — crash sweep: %d flush boundaries, %d eviction images, %d reload checks; oracle %d events, all decodes strict prefixes\n",
		report.CrashPoints, report.EvictionRuns, report.ReloadChecks, report.OracleEvents)
	fmt.Fprintln(w, "Recorder overhead — fences/reads identical off vs on; writes/lines +1 per event")
	fmt.Fprintf(w, "  %-9s %-9s %10s %8s %12s %8s %8s %8s %8s\n",
		"op", "series", "ops", "events", "wall ns", "reads", "writes", "lines", "fences")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9s %-9s %10d %8d %12.1f %8.3f %8.3f %8.3f %8.3f\n",
			r.Op, r.Series, r.Ops, r.Events, r.WallNsPerOp, r.DevReads, r.DevWrites, r.FlushedLines, r.Fences)
	}
}
