package main

import (
	"encoding/json"
	"os"
	"testing"
)

var tinySizes = sizes{
	pmapKeys:    4096,
	pmapRate:    20000,
	shardKeys:   4000,
	shardRate:   4000,
	pjoEntities: 500,
	pjoRate:     4000,
	warmOps:     500,
	probeOps:    1000,
}

func tinyConfig(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 7, seconds: 1, trace: trace, traceDir: t.TempDir(), sizes: tinySizes}
}

// Every benchmarked workload completes at a tiny size, untraced and
// traced, with no failed operation and every metric reported.
func TestWorkloadsCompleteTiny(t *testing.T) {
	for _, name := range []string{"pmap-zipf-read", "sharded-churn", "pjo-crud"} {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, trace)
			res, notes, err := run(cfg, workloads[name])
			if err != nil || !res.Correct {
				t.Fatalf("%s trace=%v: correct=%v err=%v\n%v", name, trace, res.Correct, err, notes)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: attempted=%d failed=%d", name, trace, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			if !trace && res.Metrics["completed_op_ratio"].Value != 1 {
				t.Fatalf("%s: completed_op_ratio = %v", name, res.Metrics["completed_op_ratio"].Value)
			}
			if trace && !(res.Metrics["trace.overhead_ratio"].Value > 0) {
				t.Fatalf("%s: trace.overhead_ratio = %v", name, res.Metrics["trace.overhead_ratio"].Value)
			}
			// No collection runs while clients run, so none stalls them;
			// the sharded set is still collected after its phase.
			if trace && res.Metrics["pgc.stall_share"].Value != 0 {
				t.Fatalf("%s: pgc.stall_share = %v, want 0", name, res.Metrics["pgc.stall_share"].Value)
			}
			if trace && name == "sharded-churn" && res.Metrics["pgc.cycles"].Value != shardCount {
				t.Fatalf("%s: pgc.cycles = %v, want %d", name, res.Metrics["pgc.cycles"].Value, shardCount)
			}
		}
	}
}

func TestOracleRejectsDroppedWrite(t *testing.T) {
	cfg := tinyConfig(t, "pmap-zipf-read", false)
	_, _, err := run(cfg, func(cfg config) workload {
		w := newPMapWL(cfg).(*pmapWL)
		w.dropWriteAt = 5
		return w
	})
	if !isViolation(err) {
		t.Fatalf("pmap-zipf-read with a dropped write: err = %v, want an oracle violation", err)
	}
}

func TestOracleRejectsDroppedCommit(t *testing.T) {
	cfg := tinyConfig(t, "pjo-crud", false)
	_, _, err := run(cfg, func(cfg config) workload {
		w := newPJOWL(cfg).(*pjoWL)
		w.stacks[1].dropCommitAt = 5
		return w
	})
	if !isViolation(err) {
		t.Fatalf("pjo-crud with a dropped commit: err = %v, want an oracle violation", err)
	}
}

func TestOracleRejectsReopenedImageMissingKey(t *testing.T) {
	cfg := tinyConfig(t, "sharded-churn", false)
	_, _, err := run(cfg, func(cfg config) workload {
		w := newShardedWL(cfg).(*shardedWL)
		w.loseKey = true
		return w
	})
	if !isViolation(err) {
		t.Fatalf("sharded-churn with a key lost before the power cut: err = %v, want an oracle violation", err)
	}
}

// BENCHMARK.json and the metric catalogs name the same metrics with the
// same units, and every workload it lists exists.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, wl := range b.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", wl.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), catalog %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// The recorder resolves sub-microsecond latencies to within 1%.
func TestHistResolvesSubMicrosecond(t *testing.T) {
	for _, v := range []uint64{1, 37, 255, 256, 700, 999, 1000, 12345, 3_000_000} {
		var h hist
		for i := 0; i < 100; i++ {
			h.add(v)
		}
		got := h.quantile(0.5)
		if d := got - float64(v); d < -0.01*float64(v)-1 || d > 0.01*float64(v)+1 {
			t.Errorf("median of %d x100 = %v", v, got)
		}
	}
	var h hist
	for v := uint64(1); v <= 1000; v++ {
		h.add(v)
	}
	if p99 := h.quantile(0.99); p99 < 980 || p99 > 1000 {
		t.Errorf("p99 of 1..1000 = %v", p99)
	}
}
