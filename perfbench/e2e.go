package main

import (
	"context"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ldp/internal/pipeline"
	"ldp/internal/rng"
	"ldp/internal/transport"
)

// loadConns is the number of generator connections (and load
// goroutines): nproc on the 2-CPU machines this benchmark was sized on,
// and never more.
func loadConns(nproc int) int { return min(2, max(1, nproc)) }

// newConn returns an HTTP client that holds at most one connection, so
// every load goroutine owns exactly one connection.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// batchRef names one acknowledged batch: users [start, start+n),
// randomized from the batch's noise stream, acknowledged times times.
type batchRef struct {
	start uint64
	n     int
	times int
}

// ackLog collects acknowledged batches from every load goroutine.
type ackLog struct {
	mu sync.Mutex
	m  map[uint64]*batchRef
	n  int64
}

func (a *ackLog) add(start uint64, n, times int) {
	if times == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n += int64(n * times)
	if a.m == nil {
		a.m = map[uint64]*batchRef{}
	}
	if b := a.m[start]; b != nil {
		b.times += times
		return
	}
	a.m[start] = &batchRef{start: start, n: n, times: times}
}

// refs returns the acknowledged batches ordered by first user.
func (a *ackLog) refs() []batchRef {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]batchRef, 0, len(a.m))
	for _, b := range a.m {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// total is the number of acknowledged reports.
func (a *ackLog) total() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// runner holds one end-to-end run's state.
type runner struct {
	o     options
	pop   population
	cp    *pipeline.Pipeline
	conns int
	dir   string
	addr  string
	ops   ops
	acked ackLog
	qrng  *rng.Rand
	qn    int
	out   io.Writer
}

// walDir is where the server keeps its report log.
func (r *runner) walDir() string { return filepath.Join(r.dir, "wal") }

// start launches the server on its WAL and waits until /readyz answers
// 200 and, when cond is set, until cond holds.
func (r *runner) start(logName string, cond func(*serverProc) (bool, error)) (*serverProc, error) {
	p, err := startServer(r.o.server, r.addr, nodeFlags(r.walDir()), filepath.Join(r.dir, logName))
	if err != nil {
		return nil, err
	}
	var check func() (bool, error)
	if cond != nil {
		check = func() (bool, error) { return cond(p) }
	}
	if err := p.waitReady(time.Now().Add(60*time.Second), check); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// launch deletes the WAL, starts the server and waits until /readyz
// answers 200, returning the elapsed time.
func (r *runner) launch() (*serverProc, time.Duration, error) {
	if err := os.RemoveAll(r.walDir()); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	p, err := r.start("node.log", nil)
	return p, time.Since(start), err
}

// phase is what a load phase measured.
type phase struct {
	wall    time.Duration
	reports int64
	// queryFrom names where the query latencies came from.
	queryFrom string
	send      []float64
	query     []float64
}

// bulk is ingest-bulk: bulkWarm untimed batches, then the timed closed
// loop over a fixed count of pre-randomized 1024-report batches.
func (r *runner) bulk(srv *serverProc) (phase, error) {
	pool := make([][]pipeline.Report, bulkPool)
	for p := range pool {
		reps, _, err := r.pop.randomize(r.cp, uint64(p*bulkBatch), bulkBatch)
		if err != nil {
			return phase{}, err
		}
		pool[p] = reps
	}
	r.bulkLoop(srv, pool, bulkWarm)
	cycles := max(1, int(math.Round(float64(r.o.seconds*bulkRate)/float64(bulkPool*bulkBatch))))
	return r.bulkLoop(srv, pool, int64(cycles*bulkPool)), nil
}

// bulkLoop sends total batches from pool back to back over conns
// connections. The workload has no analyst of its own, so every
// bulkQueryEvery-th iteration of the first connection runs two analyst
// queries (one dashboard, one ad hoc), measured on a machine as busy as
// the rest of the run.
func (r *runner) bulkLoop(srv *serverProc, pool [][]pipeline.Report, total int64) phase {
	limit := time.Duration(4*r.o.seconds+20) * time.Second
	var next atomic.Int64
	acked := make([]atomic.Int64, len(pool))
	lats := make([][]float64, r.conns)
	var qs []float64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range lats {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc := newConn()
			defer hc.CloseIdleConnections()
			c := transport.NewPipelineClient(srv.url, r.cp, transport.WithHTTPClient(hc))
			for k := 0; ; k++ {
				if w == 0 && k%bulkQueryEvery == 0 {
					qs = append(qs, r.query(hc, srv.url, r.nextQuery()), r.query(hc, srv.url, r.nextQuery()))
				}
				i := next.Add(1) - 1
				if i >= total || time.Since(start) > limit {
					return
				}
				t0 := time.Now()
				err := c.SendReports(context.Background(), pool[i%int64(len(pool))])
				if r.ops.recordErr(err) {
					lats[w] = append(lats[w], ms(time.Since(t0)))
					acked[i%int64(len(pool))].Add(1)
				} else {
					lats[w] = append(lats[w], math.Inf(1))
				}
			}
		}(w)
	}
	wg.Wait()
	ph := phase{wall: time.Since(start), query: qs, queryFrom: "main phase, interleaved"}
	for p := range acked {
		n := int(acked[p].Load())
		r.acked.add(uint64(p*bulkBatch), bulkBatch, n)
		ph.reports += int64(n * bulkBatch)
	}
	for _, l := range lats {
		ph.send = append(ph.send, l...)
	}
	return ph
}

// smallIngest is query-live's ingest, a closed loop on one connection:
// smallWarm untimed batches, then smallRate × --seconds timed ones, of
// smallBatch fresh users each, sent back to back. It calls timed when the
// warm-up ends and done when it has sent them all.
func (r *runner) smallIngest(srv *serverProc, timed, done func()) phase {
	defer done()
	nb := smallRate * r.o.seconds
	hc := newConn()
	defer hc.CloseIdleConnections()
	c := transport.NewPipelineClient(srv.url, r.cp, transport.WithHTTPClient(hc))
	ph := phase{send: make([]float64, 0, nb)}
	limit := time.Duration(4*r.o.seconds+20) * time.Second
	start := time.Now()
	for i := 0; i < smallWarm+nb && time.Since(start) < limit; i++ {
		if i == smallWarm {
			timed()
			start = time.Now()
		}
		s := uint64(i * smallBatch)
		ts := r.pop.tuples(s, smallBatch)
		t0 := time.Now()
		err := c.SendBatch(context.Background(), ts, r.pop.noise(s))
		if !r.ops.recordErr(err) {
			if i >= smallWarm {
				ph.send = append(ph.send, math.Inf(1))
			}
			continue
		}
		r.acked.add(s, smallBatch, 1)
		if i >= smallWarm {
			ph.send = append(ph.send, ms(time.Since(t0)))
			ph.reports += smallBatch
		}
	}
	ph.wall = time.Since(start)
	return ph
}

// query runs one analyst query against base and returns its latency.
func (r *runner) query(c *http.Client, base, q string) float64 {
	t0 := time.Now()
	status, err := getJSON(context.Background(), c, base+"/v1/query?"+q, nil)
	if !r.ops.record(status, err) {
		return math.Inf(1)
	}
	return ms(time.Since(t0))
}

// nextQuery draws the analyst's next query from the mix.
func (r *runner) nextQuery() string {
	q := queryMix(r.qrng, r.qn)
	r.qn++
	return q
}

// queryLive is query-live: a closed-loop analyst beside a closed-loop
// ingest of small batches, until the ingest has sent its count. Queries
// started before the ingest's warm-up ended are not timed.
func (r *runner) queryLive(srv *serverProc) phase {
	var timed, stop atomic.Bool
	var qs []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hc := newConn()
		defer hc.CloseIdleConnections()
		for !stop.Load() {
			t := timed.Load()
			if q := r.query(hc, srv.url, r.nextQuery()); t {
				qs = append(qs, q)
			}
		}
	}()
	ph := r.smallIngest(srv, func() { timed.Store(true) }, func() { stop.Store(true) })
	wg.Wait()
	ph.query, ph.queryFrom = qs, "main phase"
	return ph
}
