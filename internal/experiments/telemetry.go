package experiments

import (
	"fmt"
	"io"
	"time"

	"espresso/internal/core"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
	"espresso/internal/telemetry"
)

// The telemetry experiment enforces the observability layer's overhead
// contract (docs/observability.md): enabling Options.Telemetry must add
// ZERO device operations to any mutator path, and must not add locks or
// fences there either. Three single-threaded workloads — PLAB
// allocation, durable reference stores, index puts — run twice each,
// telemetry off and on, and the experiment hard-fails (not a tolerance
// check: exact equality) if any per-op device metric differs between
// the two series. Wall clock is reported but never gated; the device
// counts are deterministic and are what CI compares against the
// committed BENCH_telemetry.json baseline.
//
// The same run verifies that telemetry, while free, is also truthful:
// the "on" series cross-checks the folded counters against the
// workload's known operation counts, and a concurrent collection must
// yield a span timeline whose phase durations nest — handshake + mark +
// final pause sum to no more than the cycle's wall time, and the
// remark/summarize/compact/redo spans fit inside the final pause.

// TelemetryRow is one (series, workload) measurement.
type TelemetryRow struct {
	Series       string  `json:"series"` // "off" or "on"
	Op           string  `json:"op"`     // "alloc", "refstore", "kvput"
	Ops          int     `json:"ops"`
	WallNsPerOp  float64 `json:"wall_ns_per_op"`
	DevReads     float64 `json:"dev_reads_per_op"`
	DevWrites    float64 `json:"dev_writes_per_op"`
	FlushedLines float64 `json:"flushed_lines_per_op"`
	Fences       float64 `json:"fences_per_op"`
}

// TelemetrySpanReport is the GC phase-timeline self-check.
type TelemetrySpanReport struct {
	CycleWall  time.Duration
	Handshake  time.Duration
	Mark       time.Duration
	FinalPause time.Duration
	Inner      time.Duration // remark + summarize + compact + redo

	// Snapshot is the span-check runtime's full folded telemetry — CI
	// uploads it alongside the row JSON when a gate fails, so the exact
	// counter and span state behind a regression is inspectable without
	// a local rerun.
	Snapshot telemetry.Snapshot
}

// TelemetryOverhead runs the off/on matrix plus the span check.
func TelemetryOverhead(scale Scale) ([]TelemetryRow, TelemetrySpanReport, error) {
	var rows []TelemetryRow
	for _, op := range []string{"alloc", "refstore", "kvput"} {
		var off, on TelemetryRow
		for _, enabled := range []bool{false, true} {
			row, err := runTelemetryOp(op, enabled, scale)
			if err != nil {
				return nil, TelemetrySpanReport{}, err
			}
			if enabled {
				on = row
			} else {
				off = row
			}
			rows = append(rows, row)
		}
		// The contract is exact, not approximate: the instrumented build
		// must issue the same device operations to the word. Any drift
		// means a counter bump slipped onto the device path.
		if on.DevReads != off.DevReads || on.DevWrites != off.DevWrites ||
			on.FlushedLines != off.FlushedLines || on.Fences != off.Fences {
			return nil, TelemetrySpanReport{}, fmt.Errorf(
				"telemetry %s: device ops changed with telemetry on: off r/w/l/f %.3f/%.3f/%.3f/%.3f, on %.3f/%.3f/%.3f/%.3f",
				op, off.DevReads, off.DevWrites, off.FlushedLines, off.Fences,
				on.DevReads, on.DevWrites, on.FlushedLines, on.Fences)
		}
	}
	report, err := telemetrySpanCheck(scale)
	if err != nil {
		return nil, TelemetrySpanReport{}, err
	}
	return rows, report, nil
}

func runTelemetryOp(op string, enabled bool, scale Scale) (TelemetryRow, error) {
	series := "off"
	if enabled {
		series = "on"
	}
	var row TelemetryRow
	var err error
	switch op {
	case "alloc":
		row, err = telemetryAllocOp(enabled, scale.div(200000))
	case "refstore":
		row, err = telemetryRefStoreOp(enabled, scale.div(200000))
	case "kvput":
		row, err = telemetryKVPutOp(enabled, scale.div(100000))
	default:
		return row, fmt.Errorf("telemetry: unknown op %q", op)
	}
	if err != nil {
		return row, fmt.Errorf("telemetry %s/%s: %w", op, series, err)
	}
	row.Series, row.Op = series, op
	return row, nil
}

func finishTelemetryRow(n int, wall time.Duration, d nvm.Stats) TelemetryRow {
	return TelemetryRow{
		Ops:          n,
		WallNsPerOp:  float64(wall.Nanoseconds()) / float64(n),
		DevReads:     float64(d.Reads) / float64(n),
		DevWrites:    float64(d.Writes) / float64(n),
		FlushedLines: float64(d.FlushedLines) / float64(n),
		Fences:       float64(d.Fences) / float64(n),
	}
}

func telemetryAllocOp(enabled bool, n int) (TelemetryRow, error) {
	rt, err := core.NewRuntime(core.Config{
		PJHDataSize: n*48 + 8*layout.RegionSize,
		NVMMode:     nvm.Direct,
		Telemetry:   enabled,
	})
	if err != nil {
		return TelemetryRow{}, err
	}
	h, err := rt.CreateHeap("telemetry", 0)
	if err != nil {
		return TelemetryRow{}, err
	}
	node := klass.MustInstance("telemetry/Obj", nil,
		klass.Field{Name: "a", Type: layout.FTLong},
		klass.Field{Name: "b", Type: layout.FTLong})
	m, err := rt.NewMutator()
	if err != nil {
		return TelemetryRow{}, err
	}
	defer m.Release()
	dev := h.Device()
	s0 := dev.Stats()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := m.PNew(node, 0); err != nil {
			return TelemetryRow{}, err
		}
	}
	wall := time.Since(t0)
	row := finishTelemetryRow(n, wall, dev.Stats().Sub(s0))
	if enabled {
		// Free must not mean absent: the folded counters carry the loop.
		snap := rt.Metrics()
		if got := snap.Counter(telemetry.CtrAllocObjects.Name()); got < uint64(n) {
			return row, fmt.Errorf("alloc.objects %d < %d ops recorded", got, n)
		}
	}
	return row, nil
}

func telemetryRefStoreOp(enabled bool, n int) (TelemetryRow, error) {
	rt, err := core.NewRuntime(core.Config{
		PJHDataSize: 16 * layout.RegionSize,
		NVMMode:     nvm.Direct,
		Telemetry:   enabled,
	})
	if err != nil {
		return TelemetryRow{}, err
	}
	h, err := rt.CreateHeap("telemetry", 0)
	if err != nil {
		return TelemetryRow{}, err
	}
	node := klass.MustInstance("telemetry/Node", nil,
		klass.Field{Name: "ref", Type: layout.FTRef},
		klass.Field{Name: "pad", Type: layout.FTLong})
	refF, err := rt.ResolveField(node, "ref")
	if err != nil {
		return TelemetryRow{}, err
	}
	m, err := rt.NewMutator()
	if err != nil {
		return TelemetryRow{}, err
	}
	defer m.Release()
	const nodes = 64
	own := make([]layout.Ref, nodes)
	for i := range own {
		if own[i], err = m.PNew(node, 0); err != nil {
			return TelemetryRow{}, err
		}
	}
	vol, err := rt.NewString("telemetry-vol", false)
	if err != nil {
		return TelemetryRow{}, err
	}
	dev := h.Device()
	boff := refF.Offset()
	s0 := dev.Stats()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		obj := own[i%nodes]
		val := own[(i+1)%nodes]
		if i%5 == 4 { // churn the remset through the delta buffers too
			val = vol
		}
		if err := m.SetRefFast(obj, refF, val); err != nil {
			return TelemetryRow{}, err
		}
		h.FlushRange(obj, boff, layout.WordSize)
	}
	wall := time.Since(t0)
	row := finishTelemetryRow(n, wall, dev.Stats().Sub(s0))
	if enabled {
		snap := rt.Metrics()
		if got := snap.Counter(telemetry.CtrRefStores.Name()); got != uint64(n) {
			return row, fmt.Errorf("refstore.stores %d != %d ops recorded", got, n)
		}
	}
	return row, nil
}

func telemetryKVPutOp(enabled bool, n int) (TelemetryRow, error) {
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{
		DataSize: n*64 + 16*layout.RegionSize,
		Mode:     nvm.Direct,
	})
	if err != nil {
		return TelemetryRow{}, err
	}
	var tel *telemetry.Registry
	if enabled {
		tel = telemetry.New()
		h.SetTelemetry(tel)
	}
	ix, err := pindex.Open(h, pindex.NoPin{}, "bench", pindex.Options{
		InitialBuckets: 1024, // steady-state table so off/on runs are identical
		MaxLoadFactor:  64,
	})
	if err != nil {
		return TelemetryRow{}, err
	}
	c := ix.NewCtx()
	defer c.Release()
	dev := h.Device()
	s0 := dev.Stats()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := c.Put(int64(i), 0); err != nil {
			return TelemetryRow{}, err
		}
	}
	wall := time.Since(t0)
	row := finishTelemetryRow(n, wall, dev.Stats().Sub(s0))
	if enabled {
		snap := tel.Snapshot()
		if got := snap.Counter(telemetry.CtrIndexPuts.Name()); got != uint64(n) {
			return row, fmt.Errorf("index.puts %d != %d ops recorded", got, n)
		}
	}
	return row, nil
}

// telemetrySpanCheck runs one concurrent collection with telemetry on
// and verifies the recorded phase timeline nests inside the measured
// cycle wall time. The phases are disjoint intervals by construction
// (handshake pause, overlapped mark, final pause; remark/summarize/
// compact/redo inside the final pause), so their sums bound strictly —
// a violation means a span was recorded with the wrong window.
func telemetrySpanCheck(scale Scale) (TelemetrySpanReport, error) {
	rt, err := core.NewRuntime(core.Config{
		PJHDataSize: 16 * layout.RegionSize,
		NVMMode:     nvm.Direct,
		Telemetry:   true,
	})
	if err != nil {
		return TelemetrySpanReport{}, err
	}
	if _, err := rt.CreateHeap("telemetry", 0); err != nil {
		return TelemetrySpanReport{}, err
	}
	node := klass.MustInstance("telemetry/GCNode", nil,
		klass.Field{Name: "next", Type: layout.FTRef},
		klass.Field{Name: "pad", Type: layout.FTLong})
	m, err := rt.NewMutator()
	if err != nil {
		return TelemetrySpanReport{}, err
	}
	// A rooted chain plus interleaved garbage gives every phase real work.
	var prev layout.Ref
	nextF, err := rt.ResolveField(node, "next")
	if err != nil {
		return TelemetrySpanReport{}, err
	}
	for i := 0; i < scale.div(50000); i++ {
		if _, err := m.PNew(node, 0); err != nil { // garbage
			return TelemetrySpanReport{}, err
		}
		ref, err := m.PNew(node, 0)
		if err != nil {
			return TelemetrySpanReport{}, err
		}
		if err := m.SetRefFast(ref, nextF, prev); err != nil {
			return TelemetrySpanReport{}, err
		}
		prev = ref
	}
	if err := rt.SetRoot("chain", prev); err != nil {
		return TelemetrySpanReport{}, err
	}
	m.Release()
	t0 := time.Now()
	if _, err := rt.PersistentGCWith("telemetry", core.GCMode{Concurrent: true, Workers: 2}); err != nil {
		return TelemetrySpanReport{}, err
	}
	wall := time.Since(t0)
	snap := rt.Metrics()
	r := TelemetrySpanReport{
		Snapshot:   snap,
		CycleWall:  wall,
		Handshake:  snap.SpanTotal(telemetry.SpanGCHandshake),
		Mark:       snap.SpanTotal(telemetry.SpanGCMark),
		FinalPause: snap.SpanTotal(telemetry.SpanGCFinalPause),
		Inner: snap.SpanTotal(telemetry.SpanGCRemark) +
			snap.SpanTotal(telemetry.SpanGCSummarize) +
			snap.SpanTotal(telemetry.SpanGCCompact) +
			snap.SpanTotal(telemetry.SpanGCRedo),
	}
	if r.Handshake <= 0 || r.Mark <= 0 || r.FinalPause <= 0 {
		return r, fmt.Errorf("telemetry gc spans: missing phase (handshake %v, mark %v, finalpause %v)",
			r.Handshake, r.Mark, r.FinalPause)
	}
	if sum := r.Handshake + r.Mark + r.FinalPause; sum > r.CycleWall {
		return r, fmt.Errorf("telemetry gc spans: phases sum to %v > cycle wall %v", sum, r.CycleWall)
	}
	if r.Inner > r.FinalPause {
		return r, fmt.Errorf("telemetry gc spans: inner phases sum to %v > final pause %v", r.Inner, r.FinalPause)
	}
	if got := snap.Counter(telemetry.CtrGCCycles.Name()); got != 1 {
		return r, fmt.Errorf("telemetry gc spans: gc.cycles %d != 1", got)
	}
	return r, nil
}

// PrintTelemetry renders the off/on matrix and the span report.
func PrintTelemetry(w io.Writer, rows []TelemetryRow, report TelemetrySpanReport) {
	fmt.Fprintln(w, "Telemetry overhead — device ops per op must be identical off vs on")
	fmt.Fprintf(w, "  %-9s %-9s %10s %10s %8s %8s %8s %8s\n",
		"op", "series", "ops", "wall ns", "reads", "writes", "lines", "fences")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9s %-9s %10d %10.1f %8.3f %8.3f %8.3f %8.3f\n",
			r.Op, r.Series, r.Ops, r.WallNsPerOp, r.DevReads, r.DevWrites, r.FlushedLines, r.Fences)
	}
	fmt.Fprintf(w, "  gc span timeline: handshake %v + mark %v + finalpause %v ≤ cycle %v; inner %v ≤ finalpause\n",
		report.Handshake.Round(time.Microsecond), report.Mark.Round(time.Microsecond),
		report.FinalPause.Round(time.Microsecond), report.CycleWall.Round(time.Microsecond),
		report.Inner.Round(time.Microsecond))
}
