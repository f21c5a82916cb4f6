// Command perfbench is the repository's wall-clock benchmark. It drives
// three workloads through the public facade (espresso.PMap,
// espresso.ShardedPMap) and the PJO provider, checks every answer
// against a DRAM oracle, and prints each metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics. README.md says why each
// workload exists and which end-to-end metric each layer metric should
// move. Run it from the repository root with
//
//	bash perfbench/run.sh --workload pmap-zipf-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"espresso/internal/nvm"
)

// Metric catalogs. BENCHMARK.json lists the same names and units
// (TestCatalogMatchesBenchmarkJSON keeps them in step).
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"delete_p50_us", "us"},
	{"delete_p99_us", "us"},
	{"setup_s", "s"},
	{"completed_op_ratio", "ratio"},
	{"nvm_bytes_per_live_byte", "ratio"},
}

var perLayer = []metricDef{
	{"trace.overhead_ratio", "ratio"},
	{"espresso.pool_ns_per_op", "ns"},
	{"pindex.read_ns_p50", "ns"},
	{"pindex.write_ns_p50", "ns"},
	{"pindex.delete_ns_p50", "ns"},
	{"pindex.cas_retries_per_kop", "count"},
	{"pindex.publish_success_ratio", "ratio"},
	{"pindex.help_flushes_per_kop", "count"},
	{"pindex.flushed_lines_per_op", "count"},
	{"pshard.route_ns_per_op", "ns"},
	{"pshard.shard_op_skew", "ratio"},
	{"pheap.allocs_per_op", "count"},
	{"pheap.refills_per_kop", "count"},
	{"pheap.alloc_flushed_lines_per_alloc", "count"},
	{"nvm.reads_per_op", "count"},
	{"nvm.writes_per_op", "count"},
	{"nvm.flushed_lines_per_op", "count"},
	{"nvm.fences_per_op", "count"},
	{"nvm.bytes_written_per_user_byte", "ratio"},
	{"nvm.modeled_ns_per_op", "ns"},
	{"pgc.cycles", "count"},
	{"pgc.pause_ms_p50", "ms"},
	{"pgc.pause_ms_max", "ms"},
	{"pgc.mark_ms_p50", "ms"},
	{"pgc.moved_mb_per_cycle", "MB"},
	{"pgc.pause_flushed_lines", "count"},
	{"pgc.stall_share", "ratio"},
	{"recovery_s", "s"},
	{"pshard.recovery_shard_ms_max", "ms"},
	{"pshard.recovery_shard_ms_sum", "ms"},
	{"pshard.recovery_reads_per_key", "count"},
	{"pshard.recovery_flushed_lines_per_key", "count"},
	{"pjo.commit_us_p50", "us"},
	{"pjo.find_us_p50", "us"},
	{"pjo.transform_share", "ratio"},
	{"h2.database_share", "ratio"},
}

type metricDef struct{ name, unit string }

// Repetitions inside one run: setup_s and recovery_s are medians. An
// untraced run restarts once, to check the reopened image.
//
// recovery_s is a per-layer metric, reported by the traced run and not
// gated: a restart is a walk over the index that waits on main memory,
// and on a shared 2-CPU VM its time follows the other load on the
// machine. One process's restarts of one image, with no page faults,
// allocation or Go GC inside the timed call and no steal time, spread
// from 0.28 to 0.65 s, and four copies of the image restarted in turn
// sped up and slowed down together over tens of seconds.
const (
	setupReps    = 5
	recoveryReps = 9
)

// workload is one benchmark workload. A workload owns its clients'
// oracle state; main calls setup first, then runs phases of step, then
// verify, nvmBytesPerLiveByte and recover, then close.
type workload interface {
	// setup creates the heaps and preloads them (timed as setup_s).
	setup() error
	// describe lists the run-header facts: key and entity counts and
	// heap sizes.
	describe() []string
	// clients is the number of closed-loop client goroutines.
	clients() int
	// opsPerClient fixes each client's op count for a phase meant to
	// last about d, so the final state is the same on every run with one
	// seed.
	opsPerClient(d time.Duration) int64
	// step runs client c's next operation, timing every facade or
	// provider call through rec. It returns only oracle violations and
	// set-up faults; an operation that fails counts in rec instead.
	step(c int, rec *recorder) error
	// devStats sums the device counters of every heap the workload uses.
	devStats() nvm.Stats
	// layers derives the per-layer metrics from the traced phase tr and
	// the device traffic dev counted across it, running its own probe
	// phases as needed and recording spans outside client calls in sys.
	// Metrics of layers the workload bypasses are left out and reported
	// as 0.
	layers(tr phase, dev nvm.Stats, sys *recorder) (map[string]float64, error)
	// verify checks the final state against the oracle.
	verify() error
	// nvmBytesPerLiveByte is heap bytes no longer allocatable per byte
	// of live user payload.
	nvmBytesPerLiveByte() float64
	// recover restarts from the persisted image reps times, checks the
	// reopened state and returns each restart's wall time plus any
	// per-layer recovery metrics.
	recover(reps int, sys *recorder) ([]time.Duration, map[string]float64, error)
	// close drops the workload's heaps.
	close()
}

// runPhase runs one closed-loop phase of w lasting about d, starting
// from a settled Go heap so no collection cycle is already under way.
func runPhase(w workload, d time.Duration, traced bool) (phase, error) {
	runtime.GC()
	return runClosedLoop(w.clients(), w.opsPerClient(d), d, traced, w.step)
}

// config is what the command line selects.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string // where a traced run writes its spans
	sizes    sizes
}

// clientOps bounds the ops one client of a fixed-rate workload runs in
// a whole run: the timed phase(s), the warm-up and three probe phases.
// Heaps are sized from it, so no run exhausts its heap.
func (c config) clientOps(rate int64) int64 {
	return rate*int64(c.seconds) + c.sizes.warmOps + 3*c.sizes.probeOps
}

// sizes scales the workloads; tests shrink them.
type sizes struct {
	pmapKeys    int
	pmapRate    int64 // pmap-zipf-read ops per client per second of --seconds
	shardKeys   int
	shardRate   int64 // sharded-churn ops per client per second of --seconds
	pjoEntities int   // pjo-crud live entities per client
	pjoRate     int64 // pjo-crud ops per client per second of --seconds
	warmOps     int64 // untimed ops per client before the first phase
	probeOps    int64 // ops per client in each per-layer probe phase
}

var fullSizes = sizes{
	pmapKeys:    1 << 20,
	pmapRate:    450_000,
	shardKeys:   500_000,
	shardRate:   125_000,
	pjoEntities: 4_000,
	pjoRate:     200_000,
	warmOps:     50_000,
	probeOps:    200_000,
}

const clients = 2

var workloads = map[string]func(cfg config) workload{
	"pmap-zipf-read": newPMapWL,
	"sharded-churn":  newShardedWL,
	"pjo-crud":       newPJOWL,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := config{sizes: fullSizes, traceDir: traceDir()}
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds %d\n", cfg.workload, cfg.seconds)
		os.Exit(2)
	}
	res, notes, err := run(cfg, workloads[cfg.workload])
	for _, l := range notes {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result plus the
// human-readable lines (header and metrics) to print before it.
func run(cfg config, mk func(config) workload) (result, []string, error) {
	res := result{Metrics: map[string]metricValue{}}
	notes := []string{
		fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%d trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
		fmt.Sprintf("# nproc=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
	}
	d := time.Duration(cfg.seconds) * time.Second
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var w workload
	var setups []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
			debug.FreeOSMemory() // the next set-up must not stack on this one's heaps
		}
		w = mk(cfg)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return res, notes, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	for _, l := range w.describe() {
		notes = append(notes, "# "+l)
	}
	notes = append(notes, fmt.Sprintf("# clients=%d closed-loop, all in one process", w.clients()))
	if _, err := runClosedLoop(w.clients(), cfg.sizes.warmOps, time.Hour, false, w.step); err != nil {
		return res, notes, fmt.Errorf("warm-up: %w", err)
	}

	var vals map[string]float64
	var measured phase
	sys := &recorder{}
	if !cfg.trace {
		ph, err := runPhase(w, d, false)
		if err != nil {
			return res, notes, err
		}
		measured = ph
		notes = append(notes, "# slice ops/s: "+ph.describeSlices())
		vals = map[string]float64{
			"throughput_ops_s":   ph.sliceThroughput(),
			"setup_s":            median(setups),
			"completed_op_ratio": 1 - float64(ph.failed())/float64(ph.attempted()),
		}
		for k := opKind(0); k < numKinds; k++ {
			h := ph.merged(k)
			vals[kindNames[k]+"_p50_us"] = ph.sliceQuantile(k, 0.50) / 1e3
			vals[kindNames[k]+"_p99_us"] = ph.sliceQuantile(k, 0.99) / 1e3
			notes = append(notes, fmt.Sprintf("# %s samples=%d (about %d per slice; p50/p99 are medians over %d slices)",
				kindNames[k], h.n, h.n/segments, segments))
		}
	} else {
		sys.ring = newSpanRing(traceRingSpans)
		dev0 := w.devStats()
		ph, err := runPhase(w, d, true)
		if err != nil {
			return res, notes, err
		}
		dev := w.devStats().Sub(dev0)
		measured = ph
		if vals, err = w.layers(ph, dev, sys); err != nil {
			return res, notes, err
		}
		for _, m := range perLayer {
			if _, ok := vals[m.name]; !ok {
				vals[m.name] = 0
			}
		}
		plain, traced, ratio := ph.traceOverhead()
		vals["trace.overhead_ratio"] = ratio
		notes = append(notes, fmt.Sprintf("# untraced slices %.0f ops/s, traced slices %.0f ops/s (medians)", plain, traced))
	}
	res.Attempted, res.Failed = measured.attempted(), measured.failed()
	if err := w.verify(); err != nil {
		return res, notes, fmt.Errorf("verify: %w", err)
	}
	if !cfg.trace {
		vals["nvm_bytes_per_live_byte"] = w.nvmBytesPerLiveByte()
	}
	restarts := 1
	if cfg.trace {
		restarts = recoveryReps
	}
	times, recVals, err := w.recover(restarts, sys)
	if err != nil {
		return res, notes, fmt.Errorf("recover: %w", err)
	}
	if cfg.trace {
		var secs []float64
		for _, t := range times {
			secs = append(secs, t.Seconds())
		}
		vals["recovery_s"] = median(secs)
		notes = append(notes, fmt.Sprintf("# restarts s: %.4f", secs))
		for k, v := range recVals {
			vals[k] = v
		}
		rings := []*spanRing{sys.ring}
		for _, r := range measured.recs {
			rings = append(rings, r.spans)
		}
		path, err := writeTrace(cfg.traceDir, cfg.workload, cfg.seed, rings)
		if err != nil {
			return res, notes, fmt.Errorf("trace: %w", err)
		}
		notes = append(notes, "# trace written to "+path)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok {
			return res, notes, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		notes = append(notes, fmt.Sprintf("%-40s %16.6f %s", m.name, v, m.unit))
	}
	res.Correct = true
	return res, notes, nil
}

// traceDir is where traced runs write their spans: the build directory
// the benchmark already uses, which version control ignores.
func traceDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "perfbench")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// isViolation reports whether err is an oracle failure.
func isViolation(err error) bool { return errors.Is(err, errViolation) }
