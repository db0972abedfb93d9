package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"ldp/internal/dataset"
	"ldp/internal/transport"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		limit float64
		want  float64
	}{
		{10000, 99, 99},     // capped by the metric's name
		{10000, 99.9, 99.9}, // 10 samples beyond p99.9
		{9999, 99.9, 99},    // only 9 beyond p99.9
		{1000, 99, 99},      // exactly 10 beyond
		{999, 99, 95},       // 9 beyond p99
		{200, 99, 95},
		{100, 99, 90},
		{20, 99, 50},
		{5, 99, 50}, // too small for any: the median
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
		if p := tailPercentile(c.n, c.limit); c.n >= 20 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestSummarizePoolsTheWholeRun(t *testing.T) {
	// Eight 1000-sample stretches reading 1..8. A burst in the last
	// stretch (1000 samples, an eighth of the run) must move the p90,
	// whatever stretch it falls in.
	var s []float64
	for w := 0; w < 8; w++ {
		for i := 0; i < 1000; i++ {
			s = append(s, float64(w+1))
		}
	}
	l := summarize(s)
	if l.N != 8000 || l.P50 != 4 || l.P90 != 8 || l.TailP != 99 || l.Tail != 8 { // 8 samples lie beyond p99.9
		t.Fatalf("summary %+v", l)
	}
	for i := 7000; i < 8000; i++ {
		s[i] = 1000
	}
	if l := summarize(s); l.P90 != 1000 || l.P50 != 4 {
		t.Fatalf("a burst over an eighth of the run left p90 at %v (p50 %v)", l.P90, l.P50)
	}
	// Failed operations are +Inf samples: slower than any success.
	if l := summarize([]float64{2, math.Inf(1), 1}); l.P50 != 2 || !math.IsInf(l.P90, 1) {
		t.Fatalf("summary with a failure %+v", l)
	}
	// A sample too small for a p99.9 with ten samples beyond reports
	// the highest percentile it supports.
	if l := summarize(s[:200]); l.TailP != 95 {
		t.Fatalf("small sample summary %+v", l)
	}
}

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		{name: "a", id: 1, start: 0, end: 100},
		{name: "b", id: 2, parent: 1, start: 10, end: 40},
		{name: "c", id: 3, parent: 1, start: 30, end: 60},  // overlaps b
		{name: "d", id: 4, parent: 2, start: 15, end: 25},  // nested in b
		{name: "e", id: 5, parent: 1, start: 90, end: 130}, // runs past a
		{name: "f", id: 6, parent: 4, start: 16, end: 18},  // nested in d
	}
	// a: children cover [10,60] and [90,100] -> 100-60 = 40.
	// b: d covers 10 -> 20. d: f covers 2 -> 8.
	want := []int64{40, 20, 30, 8, 40, 2}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self time of %s = %d, want %d (all: %v)", spans[i].name, got[i], want[i], got)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("x", 0, 1)
	tr.end(id)
	tr.count("n", 1)
	if id != 0 || len(tr.spans) != 0 || len(tr.counts) != 0 {
		t.Fatalf("disabled tracer recorded: id %d, %d spans, %d counts", id, len(tr.spans), len(tr.counts))
	}
}

func TestOpsCountRefusalsAsFailed(t *testing.T) {
	var o ops
	o.record(http.StatusNoContent, nil)
	o.record(http.StatusOK, nil)
	o.record(http.StatusNotModified, nil)
	o.record(http.StatusTooManyRequests, nil)
	o.record(http.StatusInternalServerError, nil)
	o.record(http.StatusOK, errors.New("connection reset"))
	if o.attempted.Load() != 6 || o.failed.Load() != 3 {
		t.Fatalf("attempted %d failed %d, want 6 and 3", o.attempted.Load(), o.failed.Load())
	}
}

func TestShedReportSendCountsAsFailed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	census := dataset.NewBR()
	cp, err := newPipeline(census)
	if err != nil {
		t.Fatal(err)
	}
	pop := population{seed: 1, census: census}
	c := transport.NewPipelineClient(srv.URL, cp)
	var o ops
	if o.recordErr(c.Send(context.Background(), pop.tuple(0), pop.noise(0))) {
		t.Fatal("a 429 counted as success")
	}
	if o.attempted.Load() != 1 || o.failed.Load() != 1 {
		t.Fatalf("attempted %d failed %d", o.attempted.Load(), o.failed.Load())
	}
}

func TestAnyFailedOperationFailsTheRun(t *testing.T) {
	var o ops
	for i := 0; i < 1000; i++ {
		o.record(http.StatusNoContent, nil)
	}
	if err := o.err(); err != nil {
		t.Fatalf("no failures: %v", err)
	}
	o.record(http.StatusTooManyRequests, nil)
	if err := o.err(); err == nil {
		t.Fatal("one refused operation in 1001 did not fail the run")
	}
}

func TestAdhocKeysAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	r := newQueryStream(7)
	for j := 0; j < 2000; j++ {
		q := adhoc(r, j)
		if seen[q] {
			t.Fatalf("ad-hoc query %d repeats %q", j, q)
		}
		seen[q] = true
	}
}
