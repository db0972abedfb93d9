package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be supported by the sample.
const minBeyond = 10

// tailLadder lists the percentiles a tail metric may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// beyond returns how many of n sorted samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples.
func rank(n int, p float64) int {
	// The small offset keeps binary rounding of p (99.9 is not exact)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest percentile on the ladder, at most
// limit, that leaves at least minBeyond of n samples beyond it. A sample
// too small to support even the median gets the median.
func tailPercentile(n int, limit float64) float64 {
	for _, p := range tailLadder {
		if p <= limit && beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of sorted samples
// (NaN for none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// latency summarizes one latency distribution: its p50 and p90, pooled
// over the run, and the highest percentile the sample supports (TailP,
// at most p99.9), which the output prints for information.
type latency struct {
	N              int
	P50, P90, Tail float64
	TailP          float64
}

// summarize summarizes samples. Failed operations are recorded as +Inf:
// they miss any latency limit.
func summarize(samples []float64) latency {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	l := latency{N: len(xs), TailP: tailPercentile(len(xs), 99.9)}
	l.P50, l.P90, l.Tail = percentile(xs, 50), percentile(xs, 90), percentile(xs, l.TailP)
	return l
}

// pooled returns the nearest-rank p-th percentile of all samples.
func pooled(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, p)
}

// median returns the median of xs without reordering them.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// opOK reports whether one HTTP operation succeeded: a 2xx or 304
// response with no transport error. Anything else — a refused 429, a
// 5xx, a 4xx, a connection error — is a failed operation.
func opOK(status int, err error) bool {
	if err != nil {
		return false
	}
	return status/100 == 2 || status == 304
}

// ops counts the operations a run attempted and how many failed.
type ops struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// record counts one operation and returns whether it succeeded.
func (o *ops) record(status int, err error) bool {
	o.attempted.Add(1)
	if !opOK(status, err) {
		o.failed.Add(1)
		return false
	}
	return true
}

// recordErr counts one operation whose only outcome is an error (the
// client library folds non-2xx statuses into it).
func (o *ops) recordErr(err error) bool {
	if err != nil {
		return o.record(0, err)
	}
	return o.record(200, nil)
}

// err fails a run that had any failed operation: a refusal or error is a
// regression the relative bounds cannot express, since failed_frac is 0
// at the seed.
func (o *ops) err() error {
	if f := o.failed.Load(); f > 0 {
		return fmt.Errorf("%d of %d operations failed; a run must have none", f, o.attempted.Load())
	}
	return nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
