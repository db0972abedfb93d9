package main

import (
	"fmt"
	"strconv"
	"time"

	"ldp/internal/dataset"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

// Sizing of every workload. Both run closed loops over a report count
// fixed per second of --seconds, so the WAL a run leaves (and restart_s)
// does not depend on the speed of the commit under test. Each starts with
// an untimed warm-up of a fixed count: the server's first second or so of
// load runs at about half speed, for as long as the machine takes to get
// there, so timing it would add that variation to every metric.
const (
	// bulkBatch is the reports per request on ingest-bulk; bulkPool the
	// distinct pre-randomized batches it cycles through; bulkRate the
	// nominal reports/s that, times --seconds, fixes its timed report
	// count (about a third of the closed loop's speed on 2 vCPUs, so the
	// timed phase lasts about a third of --seconds and the WAL stays under
	// a gigabyte at --seconds 30); bulkWarm the warm-up batches.
	bulkBatch = 1024
	bulkPool  = 64
	bulkRate  = 700_000
	bulkWarm  = 64 * bulkPool

	// smallBatch is the reports per request of query-live's ingest;
	// smallRate the nominal requests/s that, times --seconds, fixes their
	// count (about the closed loop's speed beside the analyst on 2 vCPUs);
	// smallWarm the warm-up requests.
	smallBatch = 4
	smallRate  = 6000
	smallWarm  = 2 * smallRate

	// bulkQueryEvery spaces the analyst queries interleaved into
	// ingest-bulk's closed loop.
	bulkQueryEvery = 8

	// setupLaunches is how often one run launches the server on an empty
	// WAL; restartLaunches bounds how often it relaunches it on the full
	// one, stopping early (after at least minRestarts) once restartBudget
	// has been spent. Launches are launchGap apart so they sample seconds
	// of the machine's varying speed, not one moment of it.
	setupLaunches   = 21
	restartLaunches = 21
	minRestarts     = 5
	restartBudget   = 5 * time.Second
	launchGap       = 100 * time.Millisecond

	// eps is the privacy budget shared by the server and every client.
	eps = 1.0
)

// workloads names the traffic mixes a run can drive.
var workloads = map[string]bool{"ingest-bulk": true, "query-live": true}

// nodeFlags are the server flags: the README's deployment configuration,
// every other flag at its default.
func nodeFlags(logdir string) []string {
	return []string{"-dataset", "br", "-range", "-logdir", logdir, "-log-sync", "100ms"}
}

// population derives users from the run's seed exactly as ldpclient
// does: user id's tuple comes from stream id, and the privacy noise of a
// batch starting at user s from the disjoint stream 1<<63|s.
type population struct {
	seed   uint64
	census *dataset.Census
}

func (p population) tuple(id uint64) schema.Tuple {
	return p.census.Tuple(rng.NewStream(p.seed, id))
}

func (p population) tuples(start uint64, n int) []schema.Tuple {
	ts := make([]schema.Tuple, n)
	for i := range ts {
		ts[i] = p.tuple(start + uint64(i))
	}
	return ts
}

func (p population) noise(start uint64) *rng.Rand {
	return rng.NewStream(p.seed, 1<<63|start)
}

// newPipeline builds a pipeline with the configuration ldpserver and
// ldpclient share for -dataset br -range; extra options add server-side
// settings.
func newPipeline(census *dataset.Census, extra ...pipeline.Option) (*pipeline.Pipeline, error) {
	opts := append([]pipeline.Option{pipeline.WithRange(rangequery.Config{})}, extra...)
	return pipeline.New(census.Schema(), eps, opts...)
}

// randomize replays what PipelineClient.SendBatch does to users
// [start, start+n): each tuple randomized in order from the batch's
// noise stream.
func (p population) randomize(cp *pipeline.Pipeline, start uint64, n int) ([]pipeline.Report, []schema.Tuple, error) {
	ts := p.tuples(start, n)
	r := p.noise(start)
	reps := make([]pipeline.Report, n)
	for i, t := range ts {
		rep, err := cp.Randomize(t, r)
		if err != nil {
			return nil, nil, err
		}
		reps[i] = rep
	}
	return reps, ts, nil
}

// dashboard is the fixed set of queries an analyst repeats on
// query-live: their cache keys recur within a view epoch.
var dashboard = []string{
	"kind=mean&attr=age",
	"kind=freq&attr=gender",
	"kind=range&attr=age&lo=-0.5&hi=0.25",
	"kind=range&attr=age&lo=-0.5&hi=0.5&attr2=income&lo2=-1&hi2=0",
}

var numericAttrs = []string{"age", "income", "hours", "eduyears", "famsize", "children"}

// adhoc returns the j-th ad-hoc range query: seeded random bounds, so
// every key is distinct and misses the query cache.
func adhoc(r *rng.Rand, j int) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'f', 6, 64) }
	bounds := func() (string, string) {
		a, b := 2*r.Float64()-1, 2*r.Float64()-1
		if a > b {
			a, b = b, a
		}
		return f(a), f(b)
	}
	a := r.IntN(len(numericAttrs))
	lo, hi := bounds()
	q := fmt.Sprintf("kind=range&attr=%s&lo=%s&hi=%s", numericAttrs[a], lo, hi)
	if j%2 == 1 {
		b := (a + 1 + r.IntN(len(numericAttrs)-1)) % len(numericAttrs)
		lo2, hi2 := bounds()
		q += fmt.Sprintf("&attr2=%s&lo2=%s&hi2=%s", numericAttrs[b], lo2, hi2)
	}
	return q
}

// newQueryStream returns the analyst's stream of ad-hoc query bounds.
func newQueryStream(seed uint64) *rng.Rand { return rng.NewStream(seed, 2<<61) }

// queryMix returns the j-th query of the analyst mix: even queries walk
// the dashboard, odd ones are ad hoc.
func queryMix(r *rng.Rand, j int) string {
	if j%2 == 0 {
		return dashboard[(j/2)%len(dashboard)]
	}
	return adhoc(r, j/2)
}
