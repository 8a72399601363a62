package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the R-7 rule). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is a timing's median with its tail and sample count, printed
// next to every end-to-end metric.
type summary struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	N   int     `json:"n"`
}

func summarize(xs []float64) summary {
	return summary{P50: quantile(xs, 0.5), P95: quantile(xs, 0.95), P99: quantile(xs, 0.99), N: len(xs)}
}

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// hist is a log-linear histogram of non-negative nanosecond values with
// 2^subBits buckets per octave (about 3% resolution). It records the
// per-Next waits of the stream phase, too many to keep one by one.
type hist struct {
	n int64
	b [(64 - subBits) << subBits]int64
}

const subBits = 5

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0))
	}
	l := bits.Len64(uint64(v))
	shift := l - subBits - 1
	return (shift+1)<<subBits + int(v>>shift) - 1<<subBits
}

// bucketRange returns the smallest and one past the largest value that
// land in bucket i.
func bucketRange(i int) (lo, hi float64) {
	if i < 1<<subBits {
		return float64(i), float64(i + 1)
	}
	shift := i>>subBits - 1
	top := int64(i&(1<<subBits-1) + 1<<subBits)
	return float64(top << shift), float64((top + 1) << shift)
}

func (h *hist) observe(v int64) {
	h.n++
	h.b[bucketOf(v)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile interpolates linearly inside the bucket that holds the rank,
// so the estimate moves continuously with the counts.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bucketRange(i)
			return lo + (target-cum)/float64(c)*(hi-lo)
		}
		cum += float64(c)
	}
	lo, hi := bucketRange(len(h.b) - 1)
	return (lo + hi) / 2
}
