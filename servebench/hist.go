package main

import (
	"math/bits"
	"sync/atomic"
)

// hist is a fixed-size log-bucketed histogram of nanosecond values. Each
// power of two is split into 64 buckets, so a bucket is at most 1/64 of
// its values wide; values up to 2^40 ns (about 18 minutes) are kept and
// larger ones land in the last bucket. Add is lock-free, so trace spans
// stamped on any goroutine can share one. Memory is fixed however many
// operations a run makes.
type hist struct {
	n       atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

const (
	histSub     = 64 // buckets per power of two
	histMaxBits = 40
	histBuckets = (histMaxBits-6)*histSub + 2*histSub
)

func bucketOf(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	if bits.Len64(v) > histMaxBits {
		return histBuckets - 1
	}
	shift := bits.Len64(v) - 7 // leaves a 7-bit mantissa in [64, 128)
	return shift*histSub + int(v>>shift)
}

// bucketRange returns the lowest value in bucket i and the bucket width.
func bucketRange(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	m := i - shift*histSub
	return float64(uint64(m) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(uint64(ns))].Add(1)
	h.n.Add(1)
}

func (h *hist) count() uint64 { return h.n.Load() }

// merge adds o's counts into h.
func (h *hist) merge(o *hist) {
	for i := range o.buckets {
		if c := o.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// by rank inside the bucket that holds it (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	var cum float64
	for i := range h.buckets {
		c := float64(h.buckets[i].Load())
		if c == 0 {
			continue
		}
		if cum+c > target {
			lo, width := bucketRange(i)
			return lo + width*(target-cum)/c
		}
		cum += c
	}
	lo, width := bucketRange(histBuckets - 1)
	return lo + width
}
