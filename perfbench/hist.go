package main

import "math/bits"

// hist is a log-linear latency histogram in nanoseconds: values below
// 2·histSub land in exact 1 ns buckets, and every power of two above
// that is split into histSub linear buckets, so any recorded value is
// resolved to within 1/histSub (under 1%) of itself — well below 1 µs
// for the sub-microsecond index operations this benchmark times. Each
// client owns its histograms (no sharing, no atomics, no allocation per
// observation); they are merged once, after the clients stop.
type hist struct {
	counts [histSlots]uint64
	n      uint64
	sum    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histSlots   = (64 - histSubBits + 1) * histSub
)

func histBucket(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return e*histSub + int(v>>e)
}

// histRange reports bucket i's lowest value and width.
func histRange(i int) (lo, width uint64) {
	if i < 2*histSub {
		return uint64(i), 1
	}
	e := i/histSub - 1
	m := uint64(i%histSub + histSub)
	return m << e, 1 << e
}

func (h *hist) add(ns uint64) {
	h.counts[histBucket(ns)]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= rank {
			lo, w := histRange(i)
			return float64(lo) + float64(w)*(rank-cum)/fc
		}
		cum += fc
	}
	lo, w := histRange(histSlots - 1)
	return float64(lo + w)
}

// mean returns the mean in nanoseconds.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
