package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"espresso/internal/nvm"
)

// epoch anchors every timestamp the benchmark takes; nowNS reads the
// monotonic clock relative to it.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// span is one traced interval: a facade or provider call (a root span,
// parent 0), or a GC call, recovery pass or commit, with the device
// traffic counted across it when the boundary has a device to read.
type span struct {
	name       string
	id, parent int64
	req        int64
	start, end int64
	dev        nvm.Stats
}

// spanRing keeps the most recent spans of one client in a preallocated
// ring: recording is a slice store, never an allocation, and a run
// longer than the ring keeps its tail and counts what it overwrote.
type spanRing struct {
	buf     []span
	next    int
	wrapped bool
	dropped int64
}

func newSpanRing(n int) *spanRing { return &spanRing{buf: make([]span, n)} }

func (r *spanRing) add(s span) {
	if r.wrapped {
		r.dropped++
	}
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next, r.wrapped = 0, true
	}
}

func (r *spanRing) spans() []span {
	if !r.wrapped {
		return r.buf[:r.next]
	}
	return append(append([]span(nil), r.buf[r.next:]...), r.buf[:r.next]...)
}

// writeTrace writes every recorded span, one tab-separated line each,
// to dir/trace-<workload>.tsv (the last traced run of a workload wins)
// and returns the path.
func writeTrace(dir, workload string, seed int64, rings []*spanRing) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# workload %s seed %d\n", workload, seed)
	fmt.Fprintln(w, "name\tid\tparent\treq\tstart_ns\tend_ns\tdev_reads\tdev_writes\tdev_flushed_lines\tdev_fences")
	var dropped int64
	for _, r := range rings {
		dropped += r.dropped
		for _, s := range r.spans() {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.req,
				s.start, s.end, s.dev.Reads, s.dev.Writes, s.dev.FlushedLines, s.dev.Fences)
		}
	}
	fmt.Fprintf(w, "# dropped\t%d\n", dropped)
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
