package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ldp/internal/cluster"
	"ldp/internal/dataset"
	"ldp/internal/pipeline"
	"ldp/internal/reportlog"
	"ldp/internal/rng"
	"ldp/internal/schema"
	"ldp/internal/transport"
)

// Sizes of one traced replay pass.
const (
	traceSingles  = 3000 // one-report requests over loopback
	traceBulk     = 100  // 1024-report batches through the handler's layers
	traceHandler1 = 2000 // in-memory handler calls at 1 report
	traceHandlerB = 50   // in-memory handler calls at 1024 reports
	traceSyncs    = 100  // WAL commits after one small batch each
	traceDeltas   = 300  // small-batch deltas, each followed by a view rebuild and queries
	tracePushes   = 300  // fan-in cycles, each after one small batch
	traceLive     = time.Second
	traceAllocs   = 2000 // Sends timed for client allocations
	traceCPU      = 2000 // 1024-report batches sent to ldpserver for its CPU per report
)

// perLayer lists every per-layer metric with its unit.
var perLayer = []struct{ name, unit string }{
	{"pipeline.randomize_ns", "ns"},
	{"transport.encode_ns", "ns"},
	{"transport.client_allocs", "count"},
	{"transport.client_bytes", "B"},
	{"transport.decode_ns", "ns"},
	{"pipeline.validate_ns", "ns"},
	{"pipeline.fold_ns", "ns"},
	{"reportlog.append_ns", "ns"},
	{"ldpserver.cpu_us_per_report", "us"},
	{"transport.report_handler_us_1", "us"},
	{"transport.report_handler_us_1024", "us"},
	{"transport.report_handler_allocs_1", "count"},
	{"transport.report_handler_allocs_1024", "count"},
	{"transport.report_handler_bytes_1", "B"},
	{"transport.report_handler_bytes_1024", "B"},
	{"transport.socket_us", "us"},
	{"reportlog.sync_ms", "ms"},
	{"reportlog.replay_ns", "ns"},
	{"reportlog.bytes_per_report", "B"},
	{"pipeline.view_rebuild_us", "us"},
	{"transport.query_hit_us", "us"},
	{"transport.query_miss_us", "us"},
	{"pipeline.rebuild_share", "ratio"},
	{"pipeline.snapshot_us", "us"},
	{"cluster.delta_us", "us"},
	{"cluster.encode_us", "us"},
	{"cluster.decode_us", "us"},
	{"cluster.frame_bytes", "B"},
	{"pipeline.merge_us", "us"},
	{"cluster.push_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// traceInputs are the generated inputs one replay pass consumes, derived
// from the seed like the end-to-end workloads' inputs.
type traceInputs struct {
	census  *dataset.Census
	cp      *pipeline.Pipeline
	pop     population
	singles []schema.Tuple
	bulk    [][]pipeline.Report
	bodies  [][]byte // encoded bulk batches
	small   [][]byte // encoded small batches
	smallN  int
	queries []string
}

// smallBase is the first user id of the small batches, far from the
// one-report and bulk users.
const smallBase = 1 << 40

func makeTraceInputs(pop population, cp *pipeline.Pipeline) (*traceInputs, error) {
	in := &traceInputs{census: pop.census, cp: cp, pop: pop}
	in.singles = pop.tuples(0, traceSingles)
	for b := 0; b < traceBulk; b++ {
		reps, _, err := pop.randomize(cp, uint64(b*bulkBatch), bulkBatch)
		if err != nil {
			return nil, err
		}
		body, err := encode(reps)
		if err != nil {
			return nil, err
		}
		in.bulk = append(in.bulk, reps)
		in.bodies = append(in.bodies, body)
	}
	nSmall := traceSyncs + traceDeltas + tracePushes + 1
	for i := 0; i < nSmall; i++ {
		reps, _, err := pop.randomize(cp, uint64(smallBase+i*smallBatch), smallBatch)
		if err != nil {
			return nil, err
		}
		body, err := encode(reps)
		if err != nil {
			return nil, err
		}
		in.small = append(in.small, body)
	}
	qr := newQueryStream(pop.seed)
	for j := 0; j < 4*traceDeltas; j++ {
		in.queries = append(in.queries, adhoc(qr, j))
	}
	return in, nil
}

// nextSmall hands out the small batches in order.
func (in *traceInputs) nextSmall() []byte {
	b := in.small[in.smallN%len(in.small)]
	in.smallN++
	return b
}

func encode(reps []pipeline.Report) ([]byte, error) {
	var body []byte
	for _, rep := range reps {
		var err error
		if body, err = transport.AppendEnvelope(body, rep); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// replayStats is what one pass counted outside the spans.
type replayStats struct {
	work        time.Duration // time in the timed stages
	newEpochs   int64
	liveQueries int64
}

// runTraced replays the workloads' request paths in-process: untraced,
// traced, untraced, traced. Per-layer metrics come from the traced
// passes' spans; the time difference between the passes is the tracing
// overhead. A short run against the real ldpserver adds the metrics only
// a separate process shows.
func runTraced(o options, dir string) (result, error) {
	census := dataset.NewBR()
	pop := population{seed: o.seed, census: census}
	cp, err := newPipeline(census)
	if err != nil {
		return result{}, err
	}
	in, err := makeTraceInputs(pop, cp)
	if err != nil {
		return result{}, err
	}
	tr := newTracer(true)
	var plain, traced time.Duration
	var live replayStats
	for pass := 0; pass < 4; pass++ {
		t := tr
		if pass%2 == 0 {
			t = newTracer(false)
		}
		in.smallN = 0
		st, err := replay(t, in, filepath.Join(dir, fmt.Sprintf("pass%d", pass)))
		if err != nil {
			return result{}, fmt.Errorf("replay pass %d: %w", pass, err)
		}
		if t.on {
			traced += st.work
			live.newEpochs += st.newEpochs
			live.liveQueries += st.liveQueries
		} else {
			plain += st.work
		}
	}
	m, err := layerMetrics(tr)
	if err != nil {
		return result{}, err
	}
	m["pipeline.rebuild_share"] = float64(live.newEpochs) / float64(live.liveQueries)
	m["trace.overhead_frac"] = (traced.Seconds() - plain.Seconds()) / plain.Seconds()
	if err := processMetrics(o, in, dir, m); err != nil {
		return result{}, err
	}
	spans := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.tsv", o.workload, o.seed))
	if err := tr.write(spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(o.stdout, "trace: %d spans written to %s; replay took %.3f s traced, %.3f s untraced\n", len(tr.spans), spans, traced.Seconds(), plain.Seconds())

	res := result{Correct: true, Metrics: map[string]metric{}}
	res.Attempted = tr.counts["ops"]
	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s not measured", l.name)
		}
		res.Metrics[l.name] = metric{Value: v, Unit: l.unit}
	}
	return res, nil
}

// layerMetrics turns the traced passes' spans and counts into per-layer
// metrics: per-report costs are summed self time over reports, per-call
// costs are median self times.
func layerMetrics(tr *tracer) (map[string]float64, error) {
	st := groupSelf(tr.spans)
	c := tr.counts
	per := func(stage, name, count string) float64 { return st.total(stage, name) / float64(c[count]) }
	m := map[string]float64{
		"pipeline.randomize_ns":            per("single", "pipeline.randomize", "single.reports"),
		"transport.encode_ns":              per("single", "transport.encode", "single.reports"),
		"transport.socket_us":              st.median("single", "transport.post") / 1e3,
		"transport.decode_ns":              per("bulk", "transport.decode", "bulk.reports"),
		"pipeline.validate_ns":             per("bulk", "pipeline.validate", "bulk.reports"),
		"reportlog.append_ns":              per("bulk", "reportlog.append", "bulk.reports"),
		"pipeline.fold_ns":                 per("bulk", "pipeline.fold", "bulk.reports"),
		"transport.report_handler_us_1":    st.median("handler1", "transport.report_handler") / 1e3,
		"transport.report_handler_us_1024": st.median("handler1024", "transport.report_handler") / 1e3,
		"reportlog.sync_ms":                st.median("sync", "reportlog.sync") / 1e6,
		"reportlog.replay_ns":              per("replay", "reportlog.replay", "replay.reports"),
		"pipeline.view_rebuild_us":         st.median("query", "pipeline.view") / 1e3,
		"transport.query_hit_us":           st.median("query", "transport.query_hit") / 1e3,
		"transport.query_miss_us":          st.median("query", "transport.query_miss") / 1e3,
		"pipeline.snapshot_us":             st.median("push", "pipeline.snapshot") / 1e3,
		"cluster.delta_us":                 st.median("push", "cluster.delta") / 1e3,
		"cluster.encode_us":                st.median("push", "cluster.encode") / 1e3,
		"cluster.decode_us":                st.median("push", "cluster.decode") / 1e3,
		"pipeline.merge_us":                st.median("push", "pipeline.merge") / 1e3,
		"cluster.push_ms":                  st.median("forward", "cluster.push") / 1e6,
		"cluster.frame_bytes":              float64(c["push.frame_bytes"]) / float64(c["push.frames"]),
		"reportlog.bytes_per_report":       float64(c["replay.wal_bytes"]) / float64(c["replay.reports"]),
	}
	for _, n := range []string{"1", "1024"} {
		calls := float64(c["handler"+n+".calls"])
		m["transport.report_handler_allocs_"+n] = float64(c["handler"+n+".allocs"]) / calls
		m["transport.report_handler_bytes_"+n] = float64(c["handler"+n+".bytes"]) / calls
	}
	return m, nil
}

// replay runs one pass of every stage in dir and returns the time spent
// in the timed stages.
func replay(t *tracer, in *traceInputs, dir string) (replayStats, error) {
	var st replayStats
	timed := func(stage string, f func() error) error {
		t.setStage(stage)
		start := time.Now()
		err := f()
		st.work += time.Since(start)
		return err
	}
	s, err := newStack(in.census, filepath.Join(dir, "wal"))
	if err != nil {
		return st, err
	}
	url, stopSrv, err := loopback(spanHandler{t: t, name: "transport.report_handler", h: s.ps})
	if err != nil {
		return st, err
	}
	reports := int64(0)
	err = timed("single", func() error { return replaySingles(t, in, url, &reports) })
	stopSrv()
	if err == nil {
		err = timed("bulk", func() error { return replayBulk(t, in, s, &reports) })
	}
	if err == nil {
		err = timed("handler1", func() error {
			return replayHandler(t, s, in.bodies[0][:frameLen(in.bodies[0])], traceHandler1, "1", &reports)
		})
	}
	if err == nil {
		err = timed("handler1024", func() error { return replayHandler(t, s, in.bodies[1], traceHandlerB, "1024", &reports) })
	}
	if err == nil {
		err = timed("sync", func() error { return replaySyncs(t, in, s, &reports) })
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return st, err
	}
	var restarted *stack
	if err := timed("replay", func() error {
		var err error
		restarted, err = replayWAL(t, in.census, filepath.Join(dir, "wal"), reports)
		return err
	}); err != nil {
		return st, err
	}
	err = timed("query", func() error { return replayQueries(t, in, restarted) })
	if err == nil {
		// The live query mix is paced by the clock, so it is left out of
		// the overhead comparison.
		t.setStage("live")
		st.newEpochs, st.liveQueries, err = replayLive(in, restarted)
	}
	if cerr := restarted.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return st, err
	}
	if err := timed("push", func() error { return replayPushParts(t, in, filepath.Join(dir, "edge-wal")) }); err != nil {
		return st, err
	}
	if err := timed("forward", func() error { return replayForward(t, in, filepath.Join(dir, "fwd-wal")) }); err != nil {
		return st, err
	}
	return st, os.RemoveAll(dir)
}

// frameLen returns the length of the first frame of body.
func frameLen(body []byte) int {
	n, err := transport.FrameLen(body)
	if err != nil {
		panic("perfbench: generated body has a bad first frame: " + err.Error())
	}
	return n
}

// replaySingles sends one-report requests over loopback the way
// PipelineClient.Send does — randomize, encode, POST — one span each; the
// server's handler span is the POST's child, so the POST's self time is
// the socket and HTTP cost around the handler.
func replaySingles(t *tracer, in *traceInputs, url string, reports *int64) error {
	hc := newConn()
	defer hc.CloseIdleConnections()
	for i, tup := range in.singles {
		r := in.pop.noise(uint64(i))
		req := int64(i)
		root := t.begin("request", 0, req)
		id := t.begin("pipeline.randomize", root, req)
		rep, err := in.cp.Randomize(tup, r)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("transport.encode", root, req)
		body, err := transport.AppendEnvelope(nil, rep)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("transport.post", root, req)
		hreq, err := http.NewRequest(http.MethodPost, url+"/v1/report", bytes.NewReader(body))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/octet-stream")
		if t.on {
			hreq.Header.Set(spanHeader, strconv.Itoa(int(id)))
			hreq.Header.Set(reqHeader, strconv.FormatInt(req, 10))
		}
		resp, err := hc.Do(hreq)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				err = fmt.Errorf("POST /v1/report: %s", resp.Status)
			}
		}
		t.end(id)
		t.end(root)
		t.count("ops", 1)
		if err != nil {
			return err
		}
		t.count("single.reports", 1)
		*reports++
	}
	return nil
}

// replayBulk takes 1024-report bodies through the handler's layers.
func replayBulk(t *tracer, in *traceInputs, s *stack, reports *int64) error {
	for i, body := range in.bodies {
		req := int64(i)
		root := t.begin("request", 0, req)
		n, err := s.ingest(t, root, req, body)
		t.end(root)
		if err != nil {
			return err
		}
		t.count("bulk.reports", int64(n))
		*reports += int64(n)
	}
	return nil
}

// replayHandler calls PipelineServer.ServeHTTP in memory with body calls
// times, timing each call and counting allocations over all of them.
func replayHandler(t *tracer, s *stack, body []byte, calls int, label string, reports *int64) error {
	h, err := newInMemory(s.ps, http.MethodPost, "/v1/report")
	if err != nil {
		return err
	}
	var b pipeline.ReportBatch
	n, err := transport.DecodeBatch(body, &b)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		id := t.begin("transport.report_handler", 0, int64(i))
		status := h.call(body)
		t.end(id)
		if status != http.StatusNoContent {
			return fmt.Errorf("in-memory report handler answered %d", status)
		}
	}
	runtime.ReadMemStats(&after)
	*reports += int64(n * calls)
	t.count("handler"+label+".calls", int64(calls))
	t.count("handler"+label+".allocs", int64(after.Mallocs-before.Mallocs))
	t.count("handler"+label+".bytes", int64(after.TotalAlloc-before.TotalAlloc))
	return nil
}

// replaySyncs ingests one small batch, then commits the WAL — the
// pre-push fsync of a fan-in edge.
func replaySyncs(t *tracer, in *traceInputs, s *stack, reports *int64) error {
	for i := 0; i < traceSyncs; i++ {
		n, err := s.ingest(t, 0, int64(i), in.nextSmall())
		if err != nil {
			return err
		}
		*reports += int64(n)
		id := t.begin("reportlog.sync", 0, int64(i))
		err = s.wal.Sync()
		t.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayWAL restarts from the WAL the way ldpserver does — Recover,
// open the stack on the same directory, Replay through
// transport.ReplayPipeline — and checks that it restores every report
// written. The restarted stack keeps appending to that WAL.
func replayWAL(t *tracer, census *dataset.Census, dir string, want int64) (*stack, error) {
	segs, err := reportlog.Segments(dir)
	if err != nil {
		return nil, err
	}
	var size int64
	for _, seg := range segs {
		fi, err := os.Stat(filepath.Join(dir, seg))
		if err != nil {
			return nil, err
		}
		size += fi.Size()
	}
	id := t.begin("reportlog.replay", 0, 0)
	_, err = reportlog.Recover(dir)
	t.end(id)
	if err != nil {
		return nil, err
	}
	s, err := newStack(census, dir)
	if err != nil {
		return nil, err
	}
	id = t.begin("reportlog.replay", 0, 0)
	n, err := transport.ReplayPipeline(s.p, func(fn func([]byte) error) error {
		_, err := reportlog.Replay(dir, fn)
		return err
	})
	t.end(id)
	if err == nil && (int64(n) != want || s.p.N() != want) {
		err = fmt.Errorf("WAL replay restored %d reports (n=%d), %d were written", n, s.p.N(), want)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	t.count("replay.reports", want)
	t.count("replay.wal_bytes", size)
	return s, nil
}

// replayQueries folds one small delta at a time, rebuilds the view, then
// asks the dashboard twice (a miss, then a hit, per key) and two ad-hoc
// ranges (misses), through the query handler in memory.
func replayQueries(t *tracer, in *traceInputs, s *stack) error {
	p := s.p
	h, err := newInMemory(s.ps, http.MethodGet, "/v1/query")
	if err != nil {
		return err
	}
	b := pipeline.NewReportBatch()
	q := 0
	for d := 0; d < traceDeltas; d++ {
		b.Reset()
		if _, err := transport.DecodeBatch(in.nextSmall(), b); err != nil {
			return err
		}
		if err := p.AddBatch(b); err != nil {
			return err
		}
		id := t.begin("pipeline.view", 0, int64(d))
		p.View()
		t.end(id)
		keys := append(append(append([]string{}, dashboard...), dashboard...), in.queries[q], in.queries[q+1])
		q += 2
		seen := map[string]bool{}
		for _, k := range keys {
			name := "transport.query_miss"
			if seen[k] {
				name = "transport.query_hit"
			}
			seen[k] = true
			id := t.begin(name, 0, int64(d))
			status, _ := h.get(k)
			t.end(id)
			if status != http.StatusOK {
				return fmt.Errorf("in-memory query %q answered %d", k, status)
			}
		}
	}
	return nil
}

// replayLive runs the query-live mix over loopback for traceLive: a
// closed loop of small batches beside a closed-loop analyst, counting the
// responses whose ETag names a view epoch the analyst has not seen —
// queries that paid for a view rebuild.
func replayLive(in *traceInputs, s *stack) (newEpochs, queries int64, err error) {
	url, stop, err := loopback(s.ps)
	if err != nil {
		return 0, 0, err
	}
	defer stop()
	var done atomic.Bool
	var ingestErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		hc := newConn()
		defer hc.CloseIdleConnections()
		for i, end := 0, time.Now().Add(traceLive); time.Now().Before(end); i++ {
			resp, err := hc.Post(url+"/v1/report", "application/octet-stream", bytes.NewReader(in.small[i%len(in.small)]))
			if err != nil {
				ingestErr = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				ingestErr = fmt.Errorf("POST /v1/report: %s", resp.Status)
				return
			}
		}
	}()
	hc := newConn()
	defer hc.CloseIdleConnections()
	qr := rng.NewStream(in.pop.seed, 3<<61)
	var last uint64
	for j := 0; !done.Load(); j++ {
		resp, err := hc.Get(url + "/v1/query?" + queryMix(qr, j))
		if err != nil {
			wg.Wait()
			return 0, 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		e, err := epochOf(resp.Header.Get("Etag"))
		if err != nil {
			wg.Wait()
			return 0, 0, err
		}
		if e != last {
			newEpochs++
			last = e
		}
		queries++
	}
	wg.Wait()
	return newEpochs, queries, ingestErr
}

// replayPushParts runs a fan-in cycle's steps in the order
// Forwarder.Push takes them — snapshot, WAL sync, delta since the acked
// state, encode — and then the root's — decode, merge — one span each.
func replayPushParts(t *tracer, in *traceInputs, walDir string) error {
	edge, err := newStack(in.census, walDir)
	if err != nil {
		return err
	}
	defer edge.close()
	root, err := newStack(in.census, "")
	if err != nil {
		return err
	}
	var prev *pipeline.AggState
	var buf []byte
	for i := 0; i < tracePushes; i++ {
		if _, err := edge.ingest(t, 0, 0, in.nextSmall()); err != nil {
			return err
		}
		req := int64(i)
		rootID := t.begin("request", 0, req)
		id := t.begin("pipeline.snapshot", rootID, req)
		cum := edge.p.StateSnapshot()
		cum.Trainer = nil
		t.end(id)
		id = t.begin("reportlog.sync", rootID, req)
		err := edge.wal.Sync()
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("cluster.delta", rootID, req)
		delta, err := cum.Sub(prev)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("cluster.encode", rootID, req)
		buf, err = cluster.AppendSnapshot(buf[:0], &cluster.Snapshot{
			Fingerprint: edge.p.Fingerprint(), Edge: "edge-1", Seq: uint64(i + 1), Boot: "boot", State: delta,
		})
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("cluster.decode", rootID, req)
		snap, err := cluster.DecodeSnapshot(buf)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("pipeline.merge", rootID, req)
		err = root.p.MergeState(snap.State)
		t.end(id)
		t.end(rootID)
		if err != nil {
			return err
		}
		prev = cum
		t.count("push.frames", 1)
		t.count("push.frame_bytes", int64(len(buf)))
	}
	if root.p.N() != edge.p.N() {
		return fmt.Errorf("merged root n=%d, edge n=%d", root.p.N(), edge.p.N())
	}
	return nil
}

// replayForward times whole Forwarder.Push cycles against an in-process
// root over loopback, each after one small batch reached the edge.
func replayForward(t *tracer, in *traceInputs, walDir string) error {
	edge, err := newStack(in.census, walDir)
	if err != nil {
		return err
	}
	defer edge.close()
	root, err := newStack(in.census, "")
	if err != nil {
		return err
	}
	url, stop, err := loopback(root.ps)
	if err != nil {
		return err
	}
	defer stop()
	hc := newConn()
	defer hc.CloseIdleConnections()
	fw, err := cluster.NewForwarder(edge.p, cluster.ForwarderConfig{
		RootURL: url, EdgeID: "edge-1", HTTPClient: hc, Sync: edge.wal.Sync, Registry: edge.reg,
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := fw.Push(ctx); err != nil { // first contact: resync with the root
		return err
	}
	for i := 0; i < tracePushes; i++ {
		if _, err := edge.ingest(t, 0, 0, in.nextSmall()); err != nil {
			return err
		}
		id := t.begin("cluster.push", 0, int64(i))
		err := fw.Push(ctx)
		t.end(id)
		t.count("ops", 1)
		if err != nil {
			return err
		}
	}
	if root.p.N() != edge.p.N() {
		return fmt.Errorf("forwarded root n=%d, edge n=%d", root.p.N(), edge.p.N())
	}
	return nil
}

// processMetrics measures, against a real ldpserver process, what only a
// separate process shows: the client library's allocations per Send, the
// server's CPU per report on bulk ingest.
func processMetrics(o options, in *traceInputs, dir string, m map[string]float64) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	srv, err := startServer(o.server, addr, nodeFlags(filepath.Join(dir, "proc-wal")), filepath.Join(dir, "proc.log"))
	if err != nil {
		return err
	}
	defer srv.kill()
	if err := srv.waitReady(time.Now().Add(60*time.Second), nil); err != nil {
		return err
	}
	ctx := context.Background()

	// Client allocations per Send, noise streams made beforehand.
	hc := newConn()
	defer hc.CloseIdleConnections()
	c := transport.NewPipelineClient(srv.url, in.cp, transport.WithHTTPClient(hc))
	rs := make([]*rng.Rand, traceAllocs)
	for i := range rs {
		rs[i] = in.pop.noise(uint64(i))
	}
	for i := 0; i < 200; i++ { // warm the connection and pools
		if err := c.Send(ctx, in.singles[i], in.pop.noise(uint64(i))); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, r := range rs {
		if err := c.Send(ctx, in.singles[i%len(in.singles)], r); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m["transport.client_allocs"] = float64(after.Mallocs-before.Mallocs) / traceAllocs
	m["transport.client_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / traceAllocs

	// Server CPU per report on closed-loop bulk ingest.
	cpu0, err := srv.cpuTime()
	if err != nil {
		return err
	}
	var next atomic.Int64
	var sendErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < loadConns(runtime.NumCPU()); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newConn()
			defer hc.CloseIdleConnections()
			c := transport.NewPipelineClient(srv.url, in.cp, transport.WithHTTPClient(hc))
			for i := next.Add(1) - 1; i < traceCPU; i = next.Add(1) - 1 {
				if err := c.SendReports(ctx, in.bulk[i%int64(len(in.bulk))]); err != nil {
					sendErr.Store(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := sendErr.Load().(error); err != nil {
		return err
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return err
	}
	m["ldpserver.cpu_us_per_report"] = float64(cpu1-cpu0) / float64(time.Microsecond) / float64(traceCPU*bulkBatch)

	return srv.stop()
}
