package chaos

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ldp/internal/checkpoint"
	"ldp/internal/cluster"
	"ldp/internal/core"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/reportlog"
	"ldp/internal/rng"
	"ldp/internal/schema"
	"ldp/internal/transport"
)

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s, err := schema.New(
		schema.Attribute{Name: "age", Kind: schema.Numeric},
		schema.Attribute{Name: "income", Kind: schema.Numeric},
		schema.Attribute{Name: "gender", Kind: schema.Categorical, Cardinality: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testPipeline(t testing.TB) *pipeline.Pipeline {
	t.Helper()
	p, err := pipeline.New(testSchema(t), 4,
		pipeline.WithRange(rangequery.Config{Buckets: 32, GridCells: 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// quantReports randomizes n reports from the given stream, snapping
// numeric payloads onto a dyadic 2^-10 grid so distributed sums are
// bit-exact under any regrouping — the property that lets the suite
// assert exactness, not approximate closeness, under chaos.
func quantReports(t testing.TB, p *pipeline.Pipeline, stream uint64, n int) []pipeline.Report {
	t.Helper()
	s := p.Schema()
	reps := make([]pipeline.Report, 0, n)
	for i := 0; i < n; i++ {
		r := rng.NewStream(stream, uint64(i))
		tup := schema.NewTuple(s)
		tup.Num[0] = math.Tanh(0.4 + 0.3*r.NormFloat64())
		tup.Num[1] = math.Tanh(-0.2 + 0.5*r.NormFloat64())
		if r.Float64() < 0.7 {
			tup.Cat[2] = 1
		}
		rep, err := p.Randomize(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		for e := range rep.Entries {
			if rep.Entries[e].Kind == core.EntryNumeric {
				rep.Entries[e].Value = math.Round(rep.Entries[e].Value*1024) / 1024
			}
		}
		reps = append(reps, rep)
	}
	return reps
}

func addAll(t testing.TB, reps []pipeline.Report, ps ...*pipeline.Pipeline) {
	t.Helper()
	for _, rep := range reps {
		for _, p := range ps {
			if err := p.Add(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// assertSameEstimates requires got's every estimate to equal want's
// bit for bit: means, the categorical frequency view, and a 2-D range
// mass. Any duplicated or lost report under chaos shows up here.
func assertSameEstimates(t *testing.T, what string, want, got *pipeline.Pipeline) {
	t.Helper()
	wv, gv := want.View(), got.View()
	if wv.N() != gv.N() {
		t.Fatalf("%s: folded %d reports, want %d", what, gv.N(), wv.N())
	}
	wm, gm := wv.Means(), gv.Means()
	for k, w := range wm {
		if g := gm[k]; g != w {
			t.Errorf("%s: mean[%s] = %v, want %v (bit-exact)", what, k, g, w)
		}
	}
	wf, err := wv.FreqView("gender")
	if err != nil {
		t.Fatal(err)
	}
	gf, err := gv.FreqView("gender")
	if err != nil {
		t.Fatal(err)
	}
	for i := range wf {
		if gf[i] != wf[i] {
			t.Errorf("%s: freq[gender][%d] = %v, want %v (bit-exact)", what, i, gf[i], wf[i])
		}
	}
	rq := pipeline.RangeQuery{Attr: "age", Lo: -0.5, Hi: 0.8, Attr2: "income", Lo2: -1, Hi2: 0.25}
	wr, err := wv.Range(rq)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := gv.Range(rq)
	if err != nil {
		t.Fatal(err)
	}
	if wr != gr {
		t.Errorf("%s: range mass = %v, want %v (bit-exact)", what, gr, wr)
	}
}

// checkGoroutines returns a cleanup asserting the goroutine count
// settles back to where it started (fault injection must not strand
// senders or timers).
func checkGoroutines(t *testing.T) func() {
	before := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(3 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			buf := make([]byte, 1<<17)
			n := runtime.Stack(buf, true)
			t.Errorf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
		}
	}
}

// pushUntilAcked drives a forwarder until the root has acknowledged
// target reports, tolerating injected failures and open-breaker
// fail-fasts along the way.
func pushUntilAcked(t *testing.T, fw *cluster.Forwarder, target int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for {
		if _, reports := fw.Acked(); reports >= target {
			return
		}
		if err := fw.Push(ctx); err != nil {
			if ctx.Err() != nil {
				_, reports := fw.Acked()
				t.Fatalf("gave up at %d/%d acked reports: %v", reports, target, err)
			}
			if errors.Is(err, cluster.ErrBreakerOpen) {
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// fastForwarder builds a forwarder tuned for test time: millisecond
// retries and a breaker that re-probes almost immediately.
func fastForwarder(t *testing.T, p *pipeline.Pipeline, rootURL, edge string, client *http.Client, sync func() error) *cluster.Forwarder {
	t.Helper()
	fw, err := cluster.NewForwarder(p, cluster.ForwarderConfig{
		RootURL:    rootURL,
		EdgeID:     edge,
		HTTPClient: client,
		Sync:       sync,
		Retry:      cluster.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Breaker:    cluster.BreakerConfig{Threshold: 3, Cooldown: 2 * time.Millisecond, MaxCooldown: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// chaosClient builds an http.Client carrying the plan's faults over its
// own private transport (so idle connections are per-test and the
// goroutine-leak check stays honest).
func chaosClient(t *testing.T, plan *Plan) *http.Client {
	t.Helper()
	base := &http.Transport{}
	t.Cleanup(base.CloseIdleConnections)
	return &http.Client{Transport: plan.Transport(base), Timeout: 5 * time.Second}
}

// TestFanInExactUnderChaos is the heart of the suite: two edges fan into
// one root through a fault-injecting transport, in two ingest waves, and
// the root's estimates must come out bit-identical to a reference
// pipeline that folded every report locally — i.e. identical to what a
// no-fault run produces. Drops, blackholed acks, 503 storms, latency,
// and truncated response bodies may slow the fan-in down, but may not
// change a single bit of the answer.
func TestFanInExactUnderChaos(t *testing.T) {
	schedules := []struct {
		name string
		spec Spec
	}{
		{"clean", Spec{}},
		{"drop_heavy", Spec{Drop: 0.4}},
		{"blackhole", Spec{Blackhole: 0.6}},
		{"err5xx", Spec{Err5xx: 0.4}},
		{"latency", Spec{Latency: 0.5, MaxDelay: 5 * time.Millisecond}},
		{"partial_body", Spec{Partial: 0.6}},
		{"mixed", Spec{Drop: 0.15, Blackhole: 0.1, Err5xx: 0.15, Latency: 0.1, Partial: 0.1, MaxDelay: 5 * time.Millisecond}},
	}
	const (
		perEdgeWave = 60
		waves       = 5
	)
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			defer checkGoroutines(t)()

			ref := testPipeline(t)
			root := testPipeline(t)
			rootSrv := httptest.NewServer(transport.NewPipelineServer(root, nil))
			defer rootSrv.Close()

			plan, err := NewPlan(42, sched.spec)
			if err != nil {
				t.Fatal(err)
			}
			client := chaosClient(t, plan)

			edges := []*pipeline.Pipeline{testPipeline(t), testPipeline(t)}
			fws := []*cluster.Forwarder{
				fastForwarder(t, edges[0], rootSrv.URL, "edge-a", client, nil),
				fastForwarder(t, edges[1], rootSrv.URL, "edge-b", client, nil),
			}

			for wave := 0; wave < waves; wave++ {
				for e, edge := range edges {
					stream := uint64(10*(e+1) + wave)
					reps := quantReports(t, ref, stream, perEdgeWave)
					addAll(t, reps, ref, edge)
				}
				target := int64((wave + 1) * perEdgeWave)
				for _, fw := range fws {
					pushUntilAcked(t, fw, target)
				}
			}

			assertSameEstimates(t, sched.name, ref, root)
			if sched.spec != (Spec{}) {
				inj := plan.Injected()
				total := uint64(0)
				for f, n := range inj {
					if f != FaultNone {
						total += n
					}
				}
				if total == 0 {
					t.Errorf("schedule %q injected no faults over %d requests — the run proved nothing", sched.name, plan.Requests())
				}
				t.Logf("%s: %d requests, faults %v", sched.name, plan.Requests(), inj)
			}
		})
	}
}

// TestPlanDeterminism pins the reproducibility contract: the same seed
// and spec draw the same fault sequence.
func TestPlanDeterminism(t *testing.T) {
	spec := Spec{Drop: 0.2, Blackhole: 0.1, Err5xx: 0.2, Latency: 0.2, Partial: 0.1}
	a, _ := NewPlan(7, spec)
	b, _ := NewPlan(7, spec)
	for i := 0; i < 2000; i++ {
		fa, da := a.next()
		fb, db := b.next()
		if fa != fb || da != db {
			t.Fatalf("draw %d diverged: (%v,%v) vs (%v,%v)", i, fa, da, fb, db)
		}
	}
	c, _ := NewPlan(8, spec)
	diff := false
	for i := 0; i < 2000; i++ {
		fa, _ := a.next()
		fc, _ := c.next()
		if fa != fc {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds drew identical schedules")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=9,drop=0.25,err5xx=0.5,delay=30ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.seed != 9 || p.spec.Drop != 0.25 || p.spec.Err5xx != 0.5 || p.spec.MaxDelay != 30*time.Millisecond {
		t.Fatalf("parsed plan %+v", p.spec)
	}
	if _, err := ParsePlan(""); err != nil {
		t.Fatalf("empty plan: %v", err)
	}
	for _, bad := range []string{"drop", "drop=x", "seed=-1", "wat=1", "drop=0.9,err5xx=0.9"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestEdgeRestartUnderChaos is the in-process SIGTERM analog: an edge
// with a WAL ingests, pushes under chaos, shuts down cleanly (final
// push, WAL close), and a fresh process — new pipeline replayed from the
// WAL, new forwarder under the same edge ID — carries on. The root must
// end bit-identical to the reference with every report counted once.
func TestEdgeRestartUnderChaos(t *testing.T) {
	defer checkGoroutines(t)()

	ref := testPipeline(t)
	root := testPipeline(t)
	rootSrv := httptest.NewServer(transport.NewPipelineServer(root, nil))
	defer rootSrv.Close()

	plan, err := NewPlan(11, Spec{Drop: 0.2, Blackhole: 0.15, Partial: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	client := chaosClient(t, plan)

	walDir := filepath.Join(t.TempDir(), "wal")
	wal, err := reportlog.Open(walDir, 1<<20, reportlog.WithGroupCommit(time.Hour, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	edge := testPipeline(t)
	ingest := func(p *pipeline.Pipeline, w *reportlog.Writer, stream uint64, n int) {
		reps := quantReports(t, ref, stream, n)
		addAll(t, reps, ref, p)
		var frame []byte
		for _, rep := range reps {
			frame, err = transport.AppendEnvelope(frame[:0], rep)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(frame); err != nil {
				t.Fatal(err)
			}
		}
	}

	const wave = 120
	ingest(edge, wal, 1, wave)
	fw := fastForwarder(t, edge, rootSrv.URL, "edge-restart", client, wal.Sync)
	pushUntilAcked(t, fw, wave)

	// Clean shutdown: one final best-effort push, then close the WAL
	// (which commits the group-commit buffer). The long group-commit
	// interval above means an unclean exit here WOULD lose buffered
	// records — the ordered shutdown is what keeps the acked baseline
	// durable.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	fw.Push(ctx)
	cancel()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": recover the WAL into a fresh pipeline in one pass, as
	// cmd/ldpserver does; the new forwarder resyncs its acked baseline
	// from the root.
	edge2 := testPipeline(t)
	rec, err := checkpoint.Recover(walDir, edge2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != wave {
		t.Fatalf("replayed %d reports, want %d", rec.Replayed, wave)
	}
	wal2, err := reportlog.Open(walDir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()

	ingest(edge2, wal2, 2, wave)
	fw2 := fastForwarder(t, edge2, rootSrv.URL, "edge-restart", client, wal2.Sync)
	pushUntilAcked(t, fw2, 2*wave)

	assertSameEstimates(t, "edge restart", ref, root)
}

// TestFlakySinkNeverDoubleCounts drives single-report uploads through a
// retrying client against a server whose WAL randomly refuses appends:
// every failed persist must 500 with nothing folded, so the retries land
// each report exactly once in both the pipeline and the log.
func TestFlakySinkNeverDoubleCounts(t *testing.T) {
	defer checkGoroutines(t)()

	walDir := filepath.Join(t.TempDir(), "wal")
	wal, err := reportlog.Open(walDir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := NewFlakySink(wal, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ref := testPipeline(t)
	serverPipe := testPipeline(t)
	srv := httptest.NewServer(transport.NewPipelineServer(serverPipe, flaky))
	defer srv.Close()

	base := &http.Transport{}
	t.Cleanup(base.CloseIdleConnections)
	c := NewClientHelper(srv.URL, serverPipe, base)

	const n = 200
	reps := quantReports(t, ref, 3, n)
	addAll(t, reps, ref)
	ctx := context.Background()
	for _, rep := range reps {
		if err := c.SendReport(ctx, rep); err != nil {
			t.Fatalf("send through flaky sink: %v", err)
		}
	}
	if flaky.Failures() == 0 {
		t.Fatal("flaky sink never failed — the run proved nothing")
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	assertSameEstimates(t, "flaky sink", ref, serverPipe)

	// The WAL holds each report exactly once: a restart replays to the
	// same totals.
	replayed := testPipeline(t)
	got, err := transport.ReplayPipeline(replayed, func(fn func([]byte) error) error {
		_, err := reportlog.Replay(walDir, fn)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("WAL replayed %d reports, want %d", got, n)
	}
	assertSameEstimates(t, "flaky sink replay", ref, replayed)
}

// NewClientHelper builds a retrying PipelineClient on a private
// transport (keeps the goroutine/idle-conn accounting per-test).
func NewClientHelper(url string, p *pipeline.Pipeline, base http.RoundTripper) *transport.PipelineClient {
	return transport.NewPipelineClient(url, p,
		transport.WithHTTPClient(&http.Client{Transport: base, Timeout: 5 * time.Second}),
		transport.WithRetry(cluster.RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}),
	)
}
