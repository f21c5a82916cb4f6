package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"espresso/internal/nvm"
)

// opKind classes every timed call for the latency metrics: read is Get
// or Find; write is Put, insert, create or update commit; delete is
// Delete or a delete commit.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "delete"}

// segments splits every phase into equal time slices. The end-to-end
// latencies and throughput are medians over the slices, which keeps one
// slice disturbed by a neighbour on the machine from moving the result.
const segments = 20

// recorder is one client's private measurement state. done is the only
// call on the hot path: a clock read, a histogram increment and, in a
// traced run, one ring store.
type recorder struct {
	hists     [segments][numKinds]hist
	segOps    [segments]int64
	seg       int // current time slice, advanced by the phase runner
	attempted int64
	failed    int64
	bytes     int64     // user payload bytes written
	ring      *spanRing // where spans go; nil while not tracing
	spans     *spanRing // a traced phase's ring, set as ring on odd slices
	client    int64
	seq       int64
	cur       int64 // request id reserved by begin
}

// begin reserves the id of the root span the next done call closes, so
// spans of the provider calls inside the request can name it as parent.
func (r *recorder) begin() int64 {
	if r.ring == nil {
		return 0
	}
	r.seq++
	r.cur = r.client<<40 | r.seq
	return r.cur
}

// done closes a call that started at t0 and returns the end time.
func (r *recorder) done(kind opKind, name string, t0 int64, err error) int64 {
	t1 := nowNS()
	r.hists[r.seg][kind].add(uint64(t1 - t0))
	r.segOps[r.seg]++
	r.attempted++
	if err != nil {
		r.failed++
	}
	if r.ring != nil {
		id := r.cur
		if id == 0 {
			r.seq++
			id = r.client<<40 | r.seq
		}
		r.cur = 0
		r.ring.add(span{name: name, id: id, req: id, start: t0, end: t1})
	}
	return t1
}

// span records a span outside done's facade-call roots — a provider
// call, GC call or restart — with the device traffic counted across it,
// and returns its id. parent 0 makes it the root of its own request.
func (r *recorder) span(name string, parent, t0, t1 int64, dev nvm.Stats) int64 {
	if r.ring == nil {
		return 0
	}
	r.seq++
	id := r.client<<40 | r.seq
	req := parent
	if parent == 0 {
		req = id
	}
	r.ring.add(span{name: name, id: id, parent: parent, req: req, start: t0, end: t1, dev: dev})
	return id
}

// errViolation marks an oracle failure: a wrong value or a lost
// acknowledged write. It aborts the run, unlike an operation error,
// which only counts as failed.
var errViolation = errors.New("oracle violation")

func violation(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errViolation, fmt.Sprintf(format, args...))
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	wall   time.Duration
	segLen time.Duration // nominal length of each time slice
	recs   []*recorder
}

func (p phase) attempted() (n int64) {
	for _, r := range p.recs {
		n += r.attempted
	}
	return n
}

func (p phase) failed() (n int64) {
	for _, r := range p.recs {
		n += r.failed
	}
	return n
}

func (p phase) merged(k opKind) *hist {
	h := new(hist)
	for s := 0; s < segments; s++ {
		h.merge(p.segment(s, k))
	}
	return h
}

// segment merges every client's histogram of kind k in time slice s.
func (p phase) segment(s int, k opKind) *hist {
	h := new(hist)
	for _, r := range p.recs {
		h.merge(&r.hists[s][k])
	}
	return h
}

// sliceRates is ops per second in each time slice; the last slice runs
// to the end of the phase, and a slice the phase never reached reads 0.
func (p phase) sliceRates() [segments]float64 {
	var rates [segments]float64
	for s := 0; s < segments; s++ {
		start := time.Duration(s) * p.segLen
		end := min(start+p.segLen, p.wall)
		if s == segments-1 {
			end = p.wall
		}
		var n int64
		for _, r := range p.recs {
			n += r.segOps[s]
		}
		if end > start && n > 0 {
			rates[s] = float64(n) / (end - start).Seconds()
		}
	}
	return rates
}

// sliceThroughput is the median over the reached time slices of ops per
// second.
func (p phase) sliceThroughput() float64 { return p.sliceMedian(0, 1) }

// sliceMedian is the median rate over the reached slices first, first+step, ...
func (p phase) sliceMedian(first, step int) float64 {
	rates := p.sliceRates()
	var xs []float64
	for s := first; s < segments; s += step {
		if rates[s] > 0 {
			xs = append(xs, rates[s])
		}
	}
	return median(xs)
}

// traceOverhead is the median rate of the untraced (even) slices of a
// traced phase over that of its traced (odd) slices. The two kinds
// alternate through one phase, so both see the same drift in the
// workload's state.
func (p phase) traceOverhead() (untraced, traced, ratio float64) {
	untraced, traced = p.sliceMedian(0, 2), p.sliceMedian(1, 2)
	return untraced, traced, untraced / traced
}

func (p phase) describeSlices() string {
	var b strings.Builder
	for s := 0; s < segments; s++ {
		var n int64
		for _, r := range p.recs {
			n += r.segOps[s]
		}
		fmt.Fprintf(&b, " %.0f", float64(n)/p.segLen.Seconds())
	}
	return b.String()
}

// sliceQuantile is the median over time slices of each slice's
// q-quantile of kind k, in nanoseconds.
func (p phase) sliceQuantile(k opKind, q float64) float64 {
	var qs []float64
	for s := 0; s < segments; s++ {
		if h := p.segment(s, k); h.n > 0 {
			qs = append(qs, h.quantile(q))
		}
	}
	return median(qs)
}

// runClosedLoop runs one goroutine per client, each calling step back to
// back (a client issues its next operation only after the last returned)
// ops times. The ops are meant to take about d, which sets the time
// slices; a client still running at 3·d stops there, so a much slower
// machine cannot hang the run. In a traced phase every client records
// spans in the odd slices only, so traced and untraced slices alternate.
// A step error aborts every client; the first one is returned.
func runClosedLoop(clients int, ops int64, d time.Duration, traced bool,
	step func(c int, rec *recorder) error) (phase, error) {
	recs := make([]*recorder, clients)
	for c := range recs {
		recs[c] = &recorder{client: int64(c + 1)}
		if traced {
			recs[c].spans = newSpanRing(traceRingSpans)
		}
	}
	var stop atomic.Bool
	var once sync.Once
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(3 * d)
	segLen := max(d/segments, 1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := recs[c]
			for i := int64(0); i < ops; i++ {
				if i&63 == 0 {
					now := time.Now()
					if stop.Load() || now.After(deadline) {
						return
					}
					rec.seg = min(int(now.Sub(start)/segLen), segments-1)
					if rec.spans != nil {
						rec.ring = nil
						if rec.seg%2 == 1 {
							rec.ring = rec.spans
						}
					}
				}
				if err := step(c, rec); err != nil {
					once.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return phase{wall: time.Since(start), segLen: segLen, recs: recs}, firstErr
}

// traceRingSpans is each client's span ring capacity (~4 MB per client).
const traceRingSpans = 1 << 15
