package main

import (
	"sort"

	"espresso/internal/experiments"
	"espresso/internal/nvm"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
)

// deviceLayer fills the nvm.* metrics from a device-counter delta over
// ops operations that wrote userBytes bytes of user payload. Modeled
// device time uses the repository's one cost model: reads ×
// NVMReadLatency plus flushed lines × NVMWriteLatency.
func deviceLayer(vals map[string]float64, dev nvm.Stats, ops, userBytes float64) {
	vals["nvm.reads_per_op"] = float64(dev.Reads) / ops
	vals["nvm.writes_per_op"] = float64(dev.Writes) / ops
	vals["nvm.flushed_lines_per_op"] = float64(dev.FlushedLines) / ops
	vals["nvm.fences_per_op"] = float64(dev.Fences) / ops
	if userBytes > 0 {
		vals["nvm.bytes_written_per_user_byte"] = float64(dev.BytesWritten) / userBytes
	}
	vals["nvm.modeled_ns_per_op"] = (float64(dev.Reads)*float64(experiments.NVMReadLatency) +
		float64(dev.FlushedLines)*float64(experiments.NVMWriteLatency)) / ops
}

// indexLayer fills the pindex.* and pheap.* metrics from a probe phase
// run on benchmark-held index contexts and those contexts' counters.
func indexLayer(vals map[string]float64, held phase, st pindex.CtxStats, al pheap.AllocatorStats) {
	vals["pindex.read_ns_p50"] = held.merged(opRead).quantile(0.5)
	vals["pindex.write_ns_p50"] = held.merged(opWrite).quantile(0.5)
	vals["pindex.delete_ns_p50"] = held.merged(opDelete).quantile(0.5)
	ops := float64(st.Puts + st.Gets + st.Deletes)
	vals["pindex.cas_retries_per_kop"] = 1000 * float64(st.Retries) / ops
	vals["pindex.help_flushes_per_kop"] = 1000 * float64(st.HelpFlushes) / ops
	vals["pindex.flushed_lines_per_op"] = float64(st.FlushedLines) / ops
	// Publications: every Put and Delete publishes (at least) once.
	if pubs := float64(st.Puts + st.Deletes); pubs > 0 {
		vals["pindex.publish_success_ratio"] = pubs / (pubs + float64(st.Retries))
	}
	vals["pheap.allocs_per_op"] = float64(al.Allocs) / ops
	vals["pheap.refills_per_kop"] = 1000 * float64(al.Dispenses) / ops
	if al.Allocs > 0 {
		vals["pheap.alloc_flushed_lines_per_alloc"] = float64(al.FlushedLines) / float64(al.Allocs)
	}
}

// meanOpNS is the mean time inside the timed calls of a phase.
func meanOpNS(p phase) float64 {
	var h hist
	for k := opKind(0); k < numKinds; k++ {
		h.merge(p.merged(k))
	}
	return h.mean()
}

// userBytes is the user payload a phase's writes and deletes carried.
func userBytes(p phase) float64 {
	var n int64
	for _, r := range p.recs {
		n += r.bytes
	}
	return float64(n)
}

func subCtxStats(a, b pindex.CtxStats) pindex.CtxStats {
	return pindex.CtxStats{Puts: a.Puts - b.Puts, Gets: a.Gets - b.Gets, Deletes: a.Deletes - b.Deletes,
		FlushedLines: a.FlushedLines - b.FlushedLines, Fences: a.Fences - b.Fences,
		HelpFlushes: a.HelpFlushes - b.HelpFlushes, Retries: a.Retries - b.Retries}
}

func addCtxStats(a, b pindex.CtxStats) pindex.CtxStats {
	return pindex.CtxStats{Puts: a.Puts + b.Puts, Gets: a.Gets + b.Gets, Deletes: a.Deletes + b.Deletes,
		FlushedLines: a.FlushedLines + b.FlushedLines, Fences: a.Fences + b.Fences,
		HelpFlushes: a.HelpFlushes + b.HelpFlushes, Retries: a.Retries + b.Retries}
}

func subAllocStats(a, b pheap.AllocatorStats) pheap.AllocatorStats {
	return pheap.AllocatorStats{Allocs: a.Allocs - b.Allocs, FlushedLines: a.FlushedLines - b.FlushedLines,
		Fences: a.Fences - b.Fences, Dispenses: a.Dispenses - b.Dispenses}
}

func addAllocStats(a, b pheap.AllocatorStats) pheap.AllocatorStats {
	return pheap.AllocatorStats{Allocs: a.Allocs + b.Allocs, FlushedLines: a.FlushedLines + b.FlushedLines,
		Fences: a.Fences + b.Fences, Dispenses: a.Dispenses + b.Dispenses}
}

// gcLayer fills the pgc.* metrics other than the stall share from the
// collections' results.
func gcLayer(vals map[string]float64, calls []pgc.Result) {
	var pauses, marks []float64
	var moved, lines float64
	for _, c := range calls {
		pauses = append(pauses, float64(c.PauseTime)/1e6)
		marks = append(marks, float64(c.MarkTime)/1e6)
		moved += float64(c.MovedBytes) / 1e6
		lines += float64(c.PauseDeviceStats.FlushedLines)
	}
	n := float64(len(calls))
	sort.Float64s(pauses)
	vals["pgc.cycles"] = n
	vals["pgc.pause_ms_p50"] = median(pauses)
	vals["pgc.pause_ms_max"] = pauses[len(pauses)-1]
	vals["pgc.mark_ms_p50"] = median(marks)
	vals["pgc.moved_mb_per_cycle"] = moved / n
	vals["pgc.pause_flushed_lines"] = lines / n
}
