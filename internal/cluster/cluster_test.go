package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ldp/internal/core"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

func clusterSchema(t testing.TB) *schema.Schema {
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

func clusterPipeline(t testing.TB) *pipeline.Pipeline {
	t.Helper()
	p, err := pipeline.New(clusterSchema(t), 4,
		pipeline.WithRange(rangequery.Config{Buckets: 32, GridCells: 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ingest feeds n reports seeded from stream into each pipeline, with
// numeric payloads quantized onto a dyadic grid so distributed sums are
// bit-exact under any regrouping.
func ingest(t testing.TB, stream uint64, n int, ps ...*pipeline.Pipeline) {
	t.Helper()
	s := ps[0].Schema()
	for i := 0; i < n; i++ {
		r := rng.NewStream(stream, uint64(i))
		tup := schema.NewTuple(s)
		tup.Num[0] = math.Tanh(0.4 + 0.3*r.NormFloat64())
		tup.Num[1] = math.Tanh(-0.2 + 0.5*r.NormFloat64())
		if r.Float64() < 0.7 {
			tup.Cat[2] = 1
		}
		rep, err := ps[0].Randomize(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		for e := range rep.Entries {
			if rep.Entries[e].Kind == core.EntryNumeric {
				rep.Entries[e].Value = math.Round(rep.Entries[e].Value*1024) / 1024
			}
		}
		for _, p := range ps {
			if err := p.Add(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := clusterPipeline(t)
	ingest(t, 7, 500, src)

	snap := &Snapshot{
		Fingerprint: src.Fingerprint(),
		Edge:        "edge-a",
		Seq:         42,
		Boot:        "boot-1",
		State:       src.StateSnapshot(),
	}
	frame, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != snap.Fingerprint || got.Edge != "edge-a" || got.Seq != 42 || got.Boot != "boot-1" {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.State.Total() != 500 {
		t.Fatalf("decoded state total %d, want 500", got.State.Total())
	}

	// Re-encoding the decoded snapshot must reproduce the frame exactly.
	frame2, err := EncodeSnapshot(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(frame) != string(frame2) {
		t.Fatal("re-encoded frame differs from original")
	}

	// The decoded state folds into a fresh pipeline bit-exactly.
	ref := clusterPipeline(t)
	ingest(t, 7, 500, ref)
	dst := clusterPipeline(t)
	if err := dst.MergeState(got.State); err != nil {
		t.Fatal(err)
	}
	dm, rm := dst.Snapshot().Means(), ref.Snapshot().Means()
	for k, v := range rm {
		if dm[k] != v {
			t.Errorf("Means[%s]: got %v, want %v", k, dm[k], v)
		}
	}
}

func TestSnapshotTrainerSection(t *testing.T) {
	st := &pipeline.AggState{
		MeanSum:  []float64{1, 2},
		JointSum: []float64{0, 0},
		Trainer:  &pipeline.TrainerState{Round: 3, Done: true, Accepted: 10, Stale: 2, Beta: []float64{0.5, -0.25}},
	}
	frame, err := EncodeSnapshot(&Snapshot{Edge: "e", State: st})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	tr := got.State.Trainer
	if tr == nil || tr.Round != 3 || !tr.Done || tr.Accepted != 10 || tr.Stale != 2 || tr.Beta[1] != -0.25 {
		t.Fatalf("trainer state mangled: %+v", tr)
	}
}

// TestSnapshotTrainerRoundSection round-trips the open round's
// accumulator a checkpoint carries, and checks a frame without it decodes
// to no accumulator even into a buffer that held one.
func TestSnapshotTrainerRoundSection(t *testing.T) {
	st := &pipeline.AggState{
		MeanSum:  []float64{1, 2},
		JointSum: []float64{0, 0},
		Trainer: &pipeline.TrainerState{Round: 1, Accepted: 6, Beta: []float64{0.5, -0.25},
			Sum: []float64{2, -1.5}, Count: 2},
	}
	frame, err := EncodeSnapshot(&Snapshot{Edge: "e", State: st})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	tr := got.State.Trainer
	if tr.Count != 2 || len(tr.Sum) != 2 || tr.Sum[0] != 2 || tr.Sum[1] != -1.5 {
		t.Fatalf("trainer round mangled: %+v", tr)
	}
	st.Trainer.Sum, st.Trainer.Count = nil, 0
	if frame, err = EncodeSnapshot(&Snapshot{Edge: "e", State: st}); err != nil {
		t.Fatal(err)
	}
	if err := DecodeSnapshotInto(frame, got); err != nil {
		t.Fatal(err)
	}
	if tr := got.State.Trainer; tr.Sum != nil || tr.Count != 0 {
		t.Fatalf("frame without a round section decoded to %+v", tr)
	}
	if _, err := DecodeSnapshot(frame[:len(frame)-5]); err == nil {
		t.Fatal("truncated frame decoded")
	}
}

func TestSnapshotDecodeRejects(t *testing.T) {
	src := clusterPipeline(t)
	ingest(t, 9, 50, src)
	frame, err := EncodeSnapshot(&Snapshot{
		Fingerprint: src.Fingerprint(), Edge: "e", Seq: 1, Boot: "b", State: src.StateSnapshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte) []byte) error {
		b := append([]byte(nil), frame...)
		_, err := DecodeSnapshot(f(b))
		return err
	}

	if err := mut(func(b []byte) []byte { b[0] = 'X'; return b }); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	if err := mut(func(b []byte) []byte { b[4] = 99; return b }); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	if err := mut(func(b []byte) []byte { b[20] ^= 1; return b }); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("flipped payload bit: %v", err)
	}
	if err := mut(func(b []byte) []byte { return b[:len(b)-5] }); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}
	if err := mut(func(b []byte) []byte { return append(b, 0) }); !errors.Is(err, ErrTruncated) {
		t.Errorf("trailing garbage: %v", err)
	}
	if err := mut(func(b []byte) []byte { return b[:6] }); !errors.Is(err, ErrTruncated) {
		t.Errorf("short frame: %v", err)
	}

	if _, err := EncodeSnapshot(&Snapshot{State: src.StateSnapshot()}); err == nil {
		t.Error("encode accepted an empty edge ID")
	}
	if _, err := EncodeSnapshot(&Snapshot{Edge: "e"}); err == nil {
		t.Error("encode accepted a nil state")
	}
	if _, err := EncodeSnapshot(&Snapshot{Edge: strings.Repeat("x", MaxEdgeIDLen+1), State: src.StateSnapshot()}); err == nil {
		t.Error("encode accepted an oversized edge ID")
	}
}

func TestDecodeSnapshotIntoReuses(t *testing.T) {
	src := clusterPipeline(t)
	ingest(t, 13, 100, src)
	frame, err := EncodeSnapshot(&Snapshot{
		Fingerprint: src.Fingerprint(), Edge: "edge-b", Seq: 5, Boot: "boot", State: src.StateSnapshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := DecodeSnapshotInto(frame, &s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeSnapshotInto(frame, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecodeSnapshotInto allocates %.1f/op, want 0", allocs)
	}
	if s.State.Total() != 100 || s.Edge != "edge-b" {
		t.Fatalf("reused decode corrupted state: %+v", s)
	}
}

func TestRetryPolicy(t *testing.T) {
	fast := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 4 * time.Microsecond}

	calls := 0
	err := fast.Do(context.Background(), func(context.Context) (bool, error) {
		calls++
		if calls < 3 {
			return true, fmt.Errorf("transient")
		}
		return false, nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("recovering attempt: err=%v calls=%d", err, calls)
	}

	calls = 0
	err = fast.Do(context.Background(), func(context.Context) (bool, error) {
		calls++
		return false, fmt.Errorf("permanent")
	})
	if err == nil || calls != 1 {
		t.Fatalf("permanent error retried: err=%v calls=%d", err, calls)
	}

	calls = 0
	err = fast.Do(context.Background(), func(context.Context) (bool, error) {
		calls++
		return true, fmt.Errorf("always failing")
	})
	if err == nil || calls != 3 {
		t.Fatalf("exhaustion: err=%v calls=%d", err, calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	slow := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Hour, MaxDelay: time.Hour}
	err = slow.Do(ctx, func(context.Context) (bool, error) { return true, fmt.Errorf("x") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled backoff: %v", err)
	}

	if got := fast.backoff(10); got != fast.MaxDelay {
		t.Fatalf("backoff cap: %v", got)
	}
}

// fakeRoot is an in-test implementation of the root side of the merge
// protocol, used to exercise the forwarder against every response class.
type fakeRoot struct {
	mu    sync.Mutex
	boot  string
	fp    uint64
	p     *pipeline.Pipeline
	edges map[string]*fakeEdgeRec
	// fail503 makes the next n POSTs return 503 before recovering.
	fail503 int
	posts   int
}

type fakeEdgeRec struct {
	seq uint64
	cum *pipeline.AggState
}

func newFakeRoot(t testing.TB, boot string) *fakeRoot {
	p := clusterPipeline(t)
	return &fakeRoot{boot: boot, fp: p.Fingerprint(), p: p, edges: map[string]*fakeEdgeRec{}}
}

func (fr *fakeRoot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	w.Header().Set(BootHeader, fr.boot)
	switch r.Method {
	case http.MethodGet:
		rec, ok := fr.edges[r.URL.Query().Get("edge")]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		frame, err := EncodeSnapshot(&Snapshot{
			Fingerprint: fr.fp, Edge: r.URL.Query().Get("edge"),
			Seq: rec.seq, Boot: fr.boot, State: rec.cum,
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(frame)
	case http.MethodPost:
		fr.posts++
		if fr.fail503 > 0 {
			fr.fail503--
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		body := make([]byte, 0, 1<<16)
		buf := make([]byte, 4096)
		for {
			n, err := r.Body.Read(buf)
			body = append(body, buf[:n]...)
			if err != nil {
				break
			}
		}
		snap, err := DecodeSnapshot(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if snap.Fingerprint != fr.fp {
			http.Error(w, "fingerprint mismatch", http.StatusConflict)
			return
		}
		if snap.Boot != fr.boot {
			http.Error(w, "boot mismatch", http.StatusPreconditionFailed)
			return
		}
		rec := fr.edges[snap.Edge]
		if rec == nil {
			rec = &fakeEdgeRec{}
			fr.edges[snap.Edge] = rec
		}
		applied := false
		if snap.Seq > rec.seq {
			if err := fr.p.MergeState(snap.State); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if rec.cum == nil {
				rec.cum = snap.State.Clone()
			} else if err := rec.cum.Add(snap.State); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			rec.seq = snap.Seq
			applied = true
		}
		json.NewEncoder(w).Encode(MergeAck{Edge: snap.Edge, Seq: snap.Seq, Applied: applied, Boot: fr.boot})
	}
}

func newTestForwarder(t testing.TB, p *pipeline.Pipeline, url, edge string) *Forwarder {
	t.Helper()
	f, err := NewForwarder(p, ForwarderConfig{
		RootURL: url,
		EdgeID:  edge,
		Retry:   RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestForwarderPushDeltaAndRetry(t *testing.T) {
	fr := newFakeRoot(t, "boot-1")
	srv := httptest.NewServer(fr)
	defer srv.Close()

	edge := clusterPipeline(t)
	ref := clusterPipeline(t)
	fw := newTestForwarder(t, edge, srv.URL, "edge-a")
	ctx := context.Background()

	// First push resyncs (unknown edge → 404 + boot) then ships everything.
	ingest(t, 51, 300, edge, ref)
	if err := fw.Push(ctx); err != nil {
		t.Fatal(err)
	}
	if seq, n := fw.Acked(); seq != 1 || n != 300 {
		t.Fatalf("after first push: seq=%d acked=%d", seq, n)
	}

	// Nothing new: the cycle is a no-op, no sequence burned.
	posts := fr.posts
	if err := fw.Push(ctx); err != nil {
		t.Fatal(err)
	}
	if fr.posts != posts {
		t.Fatal("empty cycle still POSTed")
	}

	// Next delta survives transient 503s via retry.
	ingest(t, 52, 200, edge, ref)
	fr.mu.Lock()
	fr.fail503 = 2
	fr.mu.Unlock()
	if err := fw.Push(ctx); err != nil {
		t.Fatal(err)
	}
	if seq, n := fw.Acked(); seq != 2 || n != 500 {
		t.Fatalf("after retried push: seq=%d acked=%d", seq, n)
	}

	// Root state is bit-identical to a pipeline that saw every report.
	gm, wm := fr.p.Snapshot().Means(), ref.Snapshot().Means()
	for k, v := range wm {
		if gm[k] != v {
			t.Errorf("Means[%s]: got %v, want %v", k, gm[k], v)
		}
	}
	if fr.p.Watermark() != 500 {
		t.Fatalf("root watermark %d, want 500", fr.p.Watermark())
	}
}

func TestForwarderEdgeRestartResync(t *testing.T) {
	fr := newFakeRoot(t, "boot-1")
	srv := httptest.NewServer(fr)
	defer srv.Close()

	edge := clusterPipeline(t)
	fw := newTestForwarder(t, edge, srv.URL, "edge-a")
	ctx := context.Background()

	ingest(t, 61, 250, edge)
	if err := fw.Push(ctx); err != nil {
		t.Fatal(err)
	}

	// Simulate an edge restart: a fresh forwarder over a recovered
	// pipeline holding the same 250 reports plus 100 new ones. The resync
	// restores the acked baseline so only the 100 are shipped.
	recovered := clusterPipeline(t)
	ingest(t, 61, 250, recovered)
	ingest(t, 62, 100, recovered)
	fw2 := newTestForwarder(t, recovered, srv.URL, "edge-a")
	if err := fw2.Push(ctx); err != nil {
		t.Fatal(err)
	}
	if seq, n := fw2.Acked(); seq != 2 || n != 350 {
		t.Fatalf("after resynced push: seq=%d acked=%d", seq, n)
	}
	if fr.p.Watermark() != 350 {
		t.Fatalf("root watermark %d, want 350 (exactly-once)", fr.p.Watermark())
	}
}

func TestForwarderRootRestart(t *testing.T) {
	fr := newFakeRoot(t, "boot-1")
	srv := httptest.NewServer(fr)
	defer srv.Close()

	edge := clusterPipeline(t)
	fw := newTestForwarder(t, edge, srv.URL, "edge-a")
	ctx := context.Background()

	ingest(t, 71, 150, edge)
	if err := fw.Push(ctx); err != nil {
		t.Fatal(err)
	}

	// Root reboot: new boot ID, all per-edge state gone.
	fr.mu.Lock()
	fr.boot = "boot-2"
	fr.p = clusterPipeline(t)
	fr.edges = map[string]*fakeEdgeRec{}
	fr.mu.Unlock()

	ingest(t, 72, 50, edge)
	// First push after the reboot hits 412 and drops its pending frame.
	if err := fw.Push(ctx); err == nil {
		t.Fatal("push against rebooted root succeeded")
	}
	// Next cycle resyncs (404 under boot-2) and re-ships the full state.
	if err := fw.Push(ctx); err != nil {
		t.Fatal(err)
	}
	if fr.p.Watermark() != 200 {
		t.Fatalf("rebooted root watermark %d, want 200", fr.p.Watermark())
	}
	if seq, n := fw.Acked(); seq != 1 || n != 200 {
		t.Fatalf("after reboot recovery: seq=%d acked=%d", seq, n)
	}
}

func TestForwarderFingerprintMismatch(t *testing.T) {
	fr := newFakeRoot(t, "boot-1")
	srv := httptest.NewServer(fr)
	defer srv.Close()

	s := clusterSchema(t)
	p, err := pipeline.New(s, 2) // different eps, no range: different fingerprint
	if err != nil {
		t.Fatal(err)
	}
	fw := newTestForwarder(t, p, srv.URL, "edge-x")
	ingest(t, 81, 10, p)
	err = fw.Push(context.Background())
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("mismatched fingerprint not rejected: %v", err)
	}
}

func TestNewForwarderRejects(t *testing.T) {
	p := clusterPipeline(t)
	if _, err := NewForwarder(nil, ForwarderConfig{RootURL: "http://x", EdgeID: "e"}); err == nil {
		t.Error("nil pipeline accepted")
	}
	if _, err := NewForwarder(p, ForwarderConfig{EdgeID: "e"}); err == nil {
		t.Error("missing root URL accepted")
	}
	if _, err := NewForwarder(p, ForwarderConfig{RootURL: "http://x"}); err == nil {
		t.Error("missing edge ID accepted")
	}
	g, err := pipeline.New(clusterSchema(t), 4,
		pipeline.WithGradient(pipeline.GradientConfig{Dim: 3, Rounds: 2, GroupSize: 4, Eta: 1, Lambda: 1e-4}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewForwarder(g, ForwarderConfig{RootURL: "http://x", EdgeID: "e"}); err == nil {
		t.Error("gradient pipeline accepted")
	}
}
