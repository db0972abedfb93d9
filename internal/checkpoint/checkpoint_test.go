package checkpoint_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ldp/internal/checkpoint"
	"ldp/internal/cluster"
	"ldp/internal/dataset"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/reportlog"
	"ldp/internal/rng"
	"ldp/internal/telemetry"
	"ldp/internal/transport"
)

var census = dataset.NewBR()

// newPipeline builds the ldpserver -dataset br -range pipeline at eps 1.
func newPipeline(t testing.TB, opts ...pipeline.Option) *pipeline.Pipeline {
	t.Helper()
	base := []pipeline.Option{pipeline.WithShards(2), pipeline.WithRange(rangequery.Config{})}
	p, err := pipeline.New(census.Schema(), 1, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// reports randomizes users first..first+n-1 of a seeded population, as
// ldpclient does.
func reports(t testing.TB, p *pipeline.Pipeline, seed uint64, first, n int) []pipeline.Report {
	t.Helper()
	out := make([]pipeline.Report, n)
	for i := range out {
		r := rng.NewStream(seed, uint64(first+i))
		rep, err := p.Randomize(census.Tuple(r), r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rep
	}
	return out
}

// node is one aggregator on a report log directory, wired the way
// cmd/ldpserver wires it: Recover, the WAL with its rotation signal, the
// pipeline server as the sink's front end, and a Checkpointer.
type node struct {
	t       testing.TB
	dir     string
	p       *pipeline.Pipeline
	wal     *reportlog.Writer
	ps      *transport.PipelineServer
	cp      *checkpoint.Checkpointer
	rec     checkpoint.Recovery
	reg     *telemetry.Registry
	rotated chan struct{}
}

func openNode(t testing.TB, dir string, segSize int64, fs checkpoint.FS, opts ...pipeline.Option) *node {
	t.Helper()
	n, err := tryOpenNode(t, dir, segSize, fs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func tryOpenNode(t testing.TB, dir string, segSize int64, fs checkpoint.FS, opts ...pipeline.Option) (*node, error) {
	n := &node{t: t, dir: dir, p: newPipeline(t, opts...), reg: telemetry.NewRegistry(), rotated: make(chan struct{}, 1)}
	var err error
	if n.rec, err = checkpoint.Recover(dir, n.p); err != nil {
		return nil, err
	}
	if n.wal, err = reportlog.Open(dir, segSize, reportlog.WithRotateSignal(n.rotated), reportlog.WithTelemetry(n.reg)); err != nil {
		return nil, err
	}
	n.ps = transport.NewPipelineServer(n.p, n.wal, transport.WithServerTelemetry(n.reg))
	n.cp = checkpoint.New(checkpoint.Config{
		Dir: dir, Server: n.ps, WAL: n.wal, FS: fs, From: n.rec, Registry: n.reg,
	})
	return n, nil
}

// post sends reports through the server's /v1/report handler.
func (n *node) post(reps []pipeline.Report) {
	n.t.Helper()
	var body []byte
	var err error
	for _, rep := range reps {
		if body, err = transport.AppendEnvelope(body, rep); err != nil {
			n.t.Fatal(err)
		}
	}
	w := httptest.NewRecorder()
	n.ps.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(body)))
	if w.Code != http.StatusNoContent {
		n.t.Fatalf("POST /v1/report: %d %s", w.Code, w.Body.String())
	}
}

// get answers one GET through the server's handler.
func (n *node) get(path string) []byte {
	n.t.Helper()
	w := httptest.NewRecorder()
	n.ps.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != http.StatusOK {
		n.t.Fatalf("GET %s: %d %s", path, w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

// checkpointIfRotated is ldpserver's cadence made synchronous: a
// checkpoint right after each batch that rotated the log.
func (n *node) checkpointIfRotated() {
	n.t.Helper()
	select {
	case <-n.rotated:
		if _, err := n.cp.Checkpoint(); err != nil {
			n.t.Fatal(err)
		}
	default:
	}
}

// shutdown is ldpserver's clean exit: final commit, then the final
// checkpoint at the log's end.
func (n *node) shutdown() {
	n.t.Helper()
	if err := n.wal.Close(); err != nil {
		n.t.Fatal(err)
	}
	if _, err := n.cp.Final(); err != nil {
		n.t.Fatal(err)
	}
}

// crash stops the node without the final checkpoint. The WAL writes
// through (no group commit), so every acked record is in the file, as it
// is in the page cache after a SIGKILL.
func (n *node) crash() {
	n.t.Helper()
	if err := n.wal.Close(); err != nil {
		n.t.Fatal(err)
	}
}

// queries is a dashboard over every query kind and every attribute.
func queries() []string {
	out := []string{"/v1/stats", "/v1/query?kind=mean"}
	for _, a := range census.Schema().Attrs {
		if a.Cardinality > 0 {
			out = append(out, "/v1/query?kind=freq&attr="+a.Name)
		} else {
			out = append(out, "/v1/query?kind=range&attr="+a.Name+"&lo=-0.4&hi=0.7")
		}
	}
	a0, a1 := census.Schema().Attrs[0].Name, census.Schema().Attrs[1].Name
	return append(out, "/v1/query?kind=range&attr="+a0+"&lo=-1&hi=0&attr2="+a1+"&lo2=-0.5&hi2=1")
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := newPipeline(t)
	if err := p.AddBatch(batchOf(t, reports(t, p, 1, 0, 300))); err != nil {
		t.Fatal(err)
	}
	st := p.StateSnapshot()
	pos := reportlog.Position{Seq: 7, Off: 12345}
	buf, err := checkpoint.AppendEncode(nil, pos, p.CheckpointFingerprint(), st)
	if err != nil {
		t.Fatal(err)
	}
	gotPos, snap, err := checkpoint.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotPos != pos || snap.Fingerprint != p.CheckpointFingerprint() || snap.State.Total() != 300 {
		t.Fatalf("decoded position %v fingerprint %x total %d", gotPos, snap.Fingerprint, snap.State.Total())
	}
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		if _, _, err := checkpoint.Decode(bad); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	if _, _, err := checkpoint.Decode(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated checkpoint decoded")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if buf, err = checkpoint.AppendEncode(buf[:0], pos, 1, st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state encode allocates %v per checkpoint", allocs)
	}
}

func batchOf(t testing.TB, reps []pipeline.Report) *pipeline.ReportBatch {
	t.Helper()
	b := pipeline.NewReportBatch()
	for _, rep := range reps {
		b.Append(rep)
	}
	return b
}

// TestCleanRestartAnswersBitIdentically: a clean shutdown leaves a
// checkpoint at the log's end, so the restarted server replays nothing
// and answers every query byte for byte as it did before.
func TestCleanRestartAnswersBitIdentically(t *testing.T) {
	dir := t.TempDir()
	n := openNode(t, dir, 64<<10, nil)
	for k := 0; k < 30; k++ {
		n.post(reports(t, n.p, 5, 100*k, 100))
		n.checkpointIfRotated()
	}
	want := map[string][]byte{}
	for _, q := range queries() {
		want[q] = n.get(q)
	}
	n.shutdown()

	n2 := openNode(t, dir, 64<<10, nil)
	if !n2.rec.Loaded || n2.rec.Replayed != 0 || n2.rec.Restored != 3000 {
		t.Fatalf("restart: loaded %v, restored %d, replayed %d; want a checkpoint of 3000 and no replay",
			n2.rec.Loaded, n2.rec.Restored, n2.rec.Replayed)
	}
	for _, q := range queries() {
		if got := n2.get(q); !bytes.Equal(got, want[q]) {
			t.Errorf("%s after restart:\n got %s\nwant %s", q, got, want[q])
		}
	}
	// Nothing new arrived: the restarted node's shutdown writes nothing.
	if err := n2.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if wrote, err := n2.cp.Final(); wrote || err != nil {
		t.Fatalf("unchanged final checkpoint: wrote %v, err %v", wrote, err)
	}
}

// TestConsistentCutUnderConcurrentIngest forces checkpoints every few
// batches while several clients ingest 1024-report batches, then checks
// each checkpoint is a consistent cut: the reports it holds are exactly
// the records before its position, and restoring it and replaying the
// log from there gives the live server's counts exactly.
func TestConsistentCutUnderConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	n := openNode(t, dir, 64<<20, nil) // one segment: every checkpoint stays restorable
	const clients, batches, size = 4, 6, 1024
	var posted atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				n.post(reports(t, n.p, uint64(10+c), b*size, size))
				posted.Add(1)
			}
		}(c)
	}
	// Force a checkpoint after every second batch while ingest runs, and
	// keep a copy of each.
	var saved [][]byte
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	cut := func() {
		wrote, err := n.cp.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if wrote {
			b, err := os.ReadFile(filepath.Join(dir, checkpoint.FileName))
			if err != nil {
				t.Fatal(err)
			}
			saved = append(saved, b)
		}
	}
	for last, running := int64(0), true; running; {
		select {
		case <-done:
			running = false
		default:
			if posted.Load() < last+2 {
				runtime.Gosched()
				continue
			}
		}
		last = posted.Load()
		cut()
	}
	n.crash()
	if len(saved) < 3 {
		t.Fatalf("only %d checkpoints cut during ingest", len(saved))
	}
	live := n.p.TaskCounts()
	if n.p.N() != clients*batches*size {
		t.Fatalf("live n %d, want %d", n.p.N(), clients*batches*size)
	}
	frames := tailFrames(t, dir, reportlog.Position{})
	for i, b := range saved {
		pos, snap, err := checkpoint.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if before := int64(frames - tailFrames(t, dir, pos)); snap.State.Total() != before {
			t.Fatalf("checkpoint %d at %v holds %d reports, the log holds %d before it", i, pos, snap.State.Total(), before)
		}

		cdir := t.TempDir()
		copyFile(t, filepath.Join(dir, "seg-000001.log"), filepath.Join(cdir, "seg-000001.log"))
		if err := os.WriteFile(filepath.Join(cdir, checkpoint.FileName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		p := newPipeline(t)
		rec, err := checkpoint.Recover(cdir, p)
		if err != nil {
			t.Fatal(err)
		}
		if p.N() != n.p.N() || rec.Restored+int64(rec.Replayed) != n.p.N() {
			t.Fatalf("checkpoint %d: restored %d + replayed %d = n %d, live n %d", i, rec.Restored, rec.Replayed, p.N(), n.p.N())
		}
		for k, c := range live {
			if got := p.TaskCounts()[k]; got != c {
				t.Fatalf("checkpoint %d: %v count %d, live %d", i, k, got, c)
			}
		}
	}
}

// tailFrames counts the report frames in the log records at or after
// pos (a record holds one request body: one or more frames).
func tailFrames(t *testing.T, dir string, pos reportlog.Position) int {
	t.Helper()
	n := 0
	if _, err := reportlog.RecoverFrom(dir, pos, func(rec []byte) error {
		frames, err := transport.SplitFrames(rec)
		n += len(frames)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestartCostStaysFlatAsHistoryGrows is the count-based restart
// bound, with no timing: at 4 KiB segments and a checkpoint per segment
// of growth, growing the history 10x leaves a clean restart replaying 0
// reports, a crash restart replaying exactly the reports since the last
// checkpoint — never more than a segment's worth plus a batch — and only
// the segments from the checkpoint's onward on disk.
func TestRestartCostStaysFlatAsHistoryGrows(t *testing.T) {
	const segSize, batch = 4 << 10, 10
	for _, history := range []int{40, 400} { // batches
		t.Run("", func(t *testing.T) {
			dir := t.TempDir()
			n := openNode(t, dir, segSize, nil)
			minFrame := transport.MaxFrameSize
			for k := 0; k < history; k++ {
				reps := reports(t, n.p, 3, batch*k, batch)
				for _, rep := range reps {
					frame, err := transport.AppendEnvelope(nil, rep)
					if err != nil {
						t.Fatal(err)
					}
					minFrame = min(minFrame, len(frame))
				}
				n.post(reps)
				n.checkpointIfRotated()
			}
			total := n.p.N()
			last := n.cp.Last()
			n.crash()

			// Crash restart: the tail since the last checkpoint, no more.
			n = openNode(t, dir, segSize, nil)
			if n.p.N() != total {
				t.Fatalf("crash restart restored n=%d, want %d", n.p.N(), total)
			}
			// A segment rotates once it holds segSize bytes, so its frames
			// fill less than segSize plus one batch record.
			bound := segSize/minFrame + batch
			if n.rec.Pos != last || int64(n.rec.Replayed) != total-n.rec.Restored || n.rec.Replayed > bound {
				t.Fatalf("crash restart: checkpoint %v (last cut %v), restored %d, replayed %d; want replayed <= %d",
					n.rec.Pos, last, n.rec.Restored, n.rec.Replayed, bound)
			}
			segs, err := reportlog.Segments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if first := segs[0]; first != segName(last.Seq) || len(segs) > 2 {
				t.Fatalf("segments on disk %v, want at most two starting at the checkpoint's %s", segs, segName(last.Seq))
			}

			// Clean restart: nothing to replay.
			n.shutdown()
			n = openNode(t, dir, segSize, nil)
			if n.p.N() != total || n.rec.Replayed != 0 {
				t.Fatalf("clean restart: n=%d replayed %d, want n=%d and no replay", n.p.N(), n.rec.Replayed, total)
			}
			n.crash()
		})
	}
}

func segName(seq int) string { return fmt.Sprintf("seg-%06d.log", seq) }

// TestTornBatchRecordReplaysNoneOfIt: the server persists each request
// body as one record, so a crash that tears the last record — even
// exactly at a frame boundary inside it — loses that whole batch and
// never replays a prefix of it.
func TestTornBatchRecordReplaysNoneOfIt(t *testing.T) {
	dir := t.TempDir()
	n := openNode(t, dir, 64<<20, nil)
	first, second := reports(t, n.p, 7, 0, 10), reports(t, n.p, 7, 10, 10)
	n.post(first)
	n.post(second)
	n.crash()

	last, err := transport.AppendEnvelope(nil, second[len(second)-1])
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the batch's last frame: nine whole frames of it stay on disk.
	if err := os.Truncate(seg, fi.Size()-int64(len(last))); err != nil {
		t.Fatal(err)
	}
	n = openNode(t, dir, 64<<20, nil)
	if n.p.N() != 10 || n.rec.Replayed != 10 || !n.rec.Log.Truncated {
		t.Fatalf("restart after a torn batch: n=%d, replayed %d, truncated %v; want the first batch alone", n.p.N(), n.rec.Replayed, n.rec.Log.Truncated)
	}
	// Appends resume on the clean prefix.
	n.post(second)
	n.crash()
	n = openNode(t, dir, 64<<20, nil)
	if n.p.N() != 20 || n.rec.Log.Truncated {
		t.Fatalf("restart after the retry: n=%d, truncated %v; want 20 and a clean log", n.p.N(), n.rec.Log.Truncated)
	}
	n.crash()
}

// TestPerFrameLogReplaysToSameState: logs written before the server
// persisted whole bodies hold one frame per record. They must recover to
// the state the same reports reach from a one-record-per-body log.
func TestPerFrameLogReplaysToSameState(t *testing.T) {
	const batches, size = 24, 128 // 1024 divides into whole batches: replay chunks align
	newDir, oldDir := t.TempDir(), t.TempDir()
	n := openNode(t, newDir, 64<<20, nil)
	old, err := reportlog.Open(oldDir, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < batches; k++ {
		reps := reports(t, n.p, 11, k*size, size)
		n.post(reps)
		for _, rep := range reps {
			frame, err := transport.AppendEnvelope(nil, rep)
			if err != nil {
				t.Fatal(err)
			}
			if err := old.Append(frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := n.p.TaskCounts()
	n.crash()
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	state := func(dir string, records int) []byte {
		t.Helper()
		p := newPipeline(t)
		rec, err := checkpoint.Recover(dir, p)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Replayed != batches*size || rec.Log.Records != records || rec.Log.Truncated {
			t.Fatalf("%s: replayed %d reports in %d records (truncated %v), want %d in %d", dir, rec.Replayed, rec.Log.Records, rec.Log.Truncated, batches*size, records)
		}
		for k, c := range live {
			if got := p.TaskCounts()[k]; got != c {
				t.Fatalf("%s: %v count %d, live %d", dir, k, got, c)
			}
		}
		b, err := checkpoint.AppendEncode(nil, reportlog.Position{}, p.CheckpointFingerprint(), p.StateSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(state(oldDir, batches*size), state(newDir, batches)) {
		t.Fatal("per-frame and per-body logs of the same reports recover to different states")
	}
}

// TestFingerprintMismatchRefusesStart restarts a log under a different
// configuration: startup fails with an error naming the checkpoint file
// instead of falling back to a replay that would silently miss the
// reclaimed segments.
func TestFingerprintMismatchRefusesStart(t *testing.T) {
	dir := t.TempDir()
	n := openNode(t, dir, 64<<10, nil)
	n.post(reports(t, n.p, 1, 0, 50))
	n.shutdown()
	path := filepath.Join(dir, checkpoint.FileName)

	_, err := tryOpenNode(t, dir, 64<<10, nil, pipeline.WithRange(rangequery.Config{Buckets: 64}))
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("mismatched configuration: err %v", err)
	}
	p, err := pipeline.New(census.Schema(), 2, pipeline.WithRange(rangequery.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Recover(dir, p); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("mismatched budget: err %v", err)
	}

	// A corrupt checkpoint also refuses, naming the file.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tryOpenNode(t, dir, 64<<10, nil); err == nil || !strings.Contains(err.Error(), path) || !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("corrupt checkpoint: err %v", err)
	}
}

// TestSGDCheckpointMidRound stops a federated-SGD server in the middle of
// a round and checks the restart resumes the round exactly: the model,
// counters, and the open round's accumulator all survive, and training
// continues to the same model as an uninterrupted run.
func TestSGDCheckpointMidRound(t *testing.T) {
	cfg := pipeline.GradientConfig{Dim: 6, Rounds: 3, GroupSize: 8, Eta: 1, Lambda: 1e-4}
	grads := func(p *pipeline.Pipeline, first, k int) []pipeline.Report {
		out := make([]pipeline.Report, k)
		g := make([]float64, cfg.Dim)
		for i := range out {
			r := rng.NewStream(77, uint64(first+i))
			for j := range g {
				g[j] = rng.Uniform(r, -1, 1)
			}
			rep, err := p.GradientTask().RandomizeGradient(p.Trainer().Model().Round, g, r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = rep
		}
		return out
	}
	dir := t.TempDir()
	n := openNode(t, dir, 64<<10, nil, pipeline.WithGradient(cfg))
	ref := newPipeline(t, pipeline.WithGradient(cfg))
	feed := func(first, k int) {
		for i := 0; i < k; i++ { // one at a time: each report tags the current round
			reps := grads(ref, first+i, 1)
			n.post(reps)
			if err := ref.AddBatch(batchOf(t, reps)); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(0, 11) // round 0 full, round 1 holds 3
	if fill := n.p.Trainer().Fill(); fill != 3 {
		t.Fatalf("fill %d before shutdown, want 3", fill)
	}
	model := n.get("/v1/model")
	n.shutdown()

	n = openNode(t, dir, 64<<10, nil, pipeline.WithGradient(cfg))
	if n.rec.Replayed != 0 || n.p.Trainer().Fill() != 3 || n.p.Trainer().Accepted() != 11 {
		t.Fatalf("restart: replayed %d, fill %d, accepted %d", n.rec.Replayed, n.p.Trainer().Fill(), n.p.Trainer().Accepted())
	}
	if got := n.get("/v1/model"); !bytes.Equal(got, model) {
		t.Fatalf("model after restart:\n got %s\nwant %s", got, model)
	}
	feed(11, 13)
	if got, want := n.p.Trainer().Model(), ref.Trainer().Model(); !got.Done || got.Round != want.Round {
		t.Fatalf("restarted run at round %d done %v, reference round %d", got.Round, got.Done, want.Round)
	} else {
		for j := range got.Beta {
			if got.Beta[j] != want.Beta[j] {
				t.Fatalf("beta[%d] = %v after restart, uninterrupted run %v", j, got.Beta[j], want.Beta[j])
			}
		}
	}
	n.shutdown()

	// A different training setup refuses the checkpoint.
	other := cfg
	other.GroupSize = 9
	if _, err := tryOpenNode(t, dir, 64<<10, nil, pipeline.WithGradient(other)); err == nil {
		t.Fatal("restart under a different SGD group size accepted the checkpoint")
	}
}

// TestMergedRootNeverDoubleCounts runs a root that checkpoints, then
// applies an edge's fan-in push: it must stop checkpointing (its log
// cannot account for the merged state), and after a restart plus the
// edge's re-push it counts every report exactly once.
func TestMergedRootNeverDoubleCounts(t *testing.T) {
	dir := t.TempDir()
	root := openNode(t, dir, 4<<10, nil)
	srv := httptest.NewServer(root.ps)
	defer srv.Close()
	for k := 0; k < 20; k++ { // local history, checkpointed as it rotates
		root.post(reports(t, root.p, 1, 10*k, 10))
		root.checkpointIfRotated()
	}
	if root.cp.Last() == (reportlog.Position{}) {
		t.Fatal("no pre-merge checkpoint was cut")
	}

	edge := newPipeline(t)
	if err := edge.AddBatch(batchOf(t, reports(t, edge, 2, 0, 300))); err != nil {
		t.Fatal(err)
	}
	fw, err := cluster.NewForwarder(edge, cluster.ForwarderConfig{RootURL: srv.URL, EdgeID: "edge-a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Push(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !root.ps.Merged() || root.p.N() != 500 {
		t.Fatalf("after the merge: merged %v, n %d", root.ps.Merged(), root.p.N())
	}
	for k := 20; k < 40; k++ { // more local reports, more rotations
		root.post(reports(t, root.p, 1, 10*k, 10))
		root.checkpointIfRotated()
	}
	before := root.cp.Last()
	if wrote, err := root.cp.Checkpoint(); wrote || err != nil {
		t.Fatalf("checkpoint after a merge: wrote %v, err %v", wrote, err)
	}
	root.shutdown() // the final checkpoint is skipped too
	if root.cp.Last() != before {
		t.Fatalf("a checkpoint was cut after the merge: %v -> %v", before, root.cp.Last())
	}
	if !strings.Contains(prom(t, root.reg), `ldp_checkpoint_skipped_total{reason="merged"} `) {
		t.Fatal("merge skips are not counted")
	}
	srv.Close()

	// Restart: local reports only, then the edge re-pushes its cumulative
	// state under the new boot.
	root = openNode(t, dir, 4<<10, nil)
	if root.p.N() != 400 {
		t.Fatalf("restarted root n=%d, want the 400 local reports", root.p.N())
	}
	srv2 := httptest.NewServer(root.ps)
	defer srv2.Close()
	fw2, err := cluster.NewForwarder(edge, cluster.ForwarderConfig{RootURL: srv2.URL, EdgeID: "edge-a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw2.Push(context.Background()); err != nil {
		t.Fatal(err)
	}
	if root.p.N() != 700 {
		t.Fatalf("root n=%d after the re-push, want 700 (400 local + 300 edge)", root.p.N())
	}
	root.crash()
}

// TestEdgeRestoredFromCheckpointResyncs restarts an edge from its
// checkpoint: the new forwarder resyncs against the root and pushes only
// what the root lacks.
func TestEdgeRestoredFromCheckpointResyncs(t *testing.T) {
	root := newPipeline(t)
	srv := httptest.NewServer(transport.NewPipelineServer(root, nil))
	defer srv.Close()
	dir := t.TempDir()
	edge := openNode(t, dir, 4<<10, nil)
	push := func(p *pipeline.Pipeline, sync func() error) {
		fw, err := cluster.NewForwarder(p, cluster.ForwarderConfig{RootURL: srv.URL, EdgeID: "edge-b", Sync: sync})
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.Push(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 30; k++ {
		edge.post(reports(t, edge.p, 4, 10*k, 10))
		edge.checkpointIfRotated()
	}
	push(edge.p, edge.wal.Sync)
	edge.post(reports(t, edge.p, 4, 300, 50)) // durable, never pushed
	edge.shutdown()

	edge = openNode(t, dir, 4<<10, nil)
	if !edge.rec.Loaded || edge.rec.Replayed != 0 || edge.p.N() != 350 {
		t.Fatalf("edge restart: loaded %v replayed %d n %d", edge.rec.Loaded, edge.rec.Replayed, edge.p.N())
	}
	push(edge.p, edge.wal.Sync)
	if root.N() != 350 {
		t.Fatalf("root n=%d after the restored edge's push, want 350", root.N())
	}
	edge.crash()
}

// TestCheckpointMetrics checks the ldp_checkpoint_* families track the
// newest checkpoint.
func TestCheckpointMetrics(t *testing.T) {
	dir := t.TempDir()
	n := openNode(t, dir, 64<<10, nil)
	n.post(reports(t, n.p, 1, 0, 120))
	if wrote, err := n.cp.Checkpoint(); !wrote || err != nil {
		t.Fatalf("checkpoint: %v %v", wrote, err)
	}
	if wrote, _ := n.cp.Checkpoint(); wrote {
		t.Fatal("an unchanged log was checkpointed again")
	}
	fi, err := os.Stat(filepath.Join(dir, checkpoint.FileName))
	if err != nil {
		t.Fatal(err)
	}
	out := prom(t, n.reg)
	for _, want := range []string{
		"ldp_checkpoint_reports 120\n",
		"ldp_checkpoint_bytes " + strconv.FormatInt(fi.Size(), 10) + "\n",
		"ldp_checkpoint_duration_ns_count 1\n",
		"ldp_checkpoint_cut_duration_ns_count 2\n",
		`ldp_checkpoint_skipped_total{reason="unchanged"} 1` + "\n",
		`ldp_checkpoint_failures_total{step="write"} 0` + "\n",
		"ldp_wal_append_duration_ns_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	n.crash()
	n = openNode(t, dir, 64<<10, nil)
	out = prom(t, n.reg)
	for _, want := range []string{"ldp_checkpoint_restored_reports 120\n", "ldp_wal_replayed_records 0\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("restart exposition lacks %q", want)
		}
	}
	n.crash()
}

func prom(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	if _, err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// BenchmarkCheckpointEncode is the checkpoint encode path (the CI alloc
// guard holds it at 0 allocs/op): one ldpserver -dataset br -range state
// into a reused buffer.
func BenchmarkCheckpointEncode(b *testing.B) {
	p := newPipeline(b)
	if err := p.AddBatch(batchOf(b, reports(b, p, 1, 0, 2000))); err != nil {
		b.Fatal(err)
	}
	st := p.StateSnapshot()
	fp := p.CheckpointFingerprint()
	buf, err := checkpoint.AppendEncode(nil, reportlog.Position{Seq: 1}, fp, st)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = checkpoint.AppendEncode(buf[:0], reportlog.Position{Seq: 1, Off: int64(i)}, fp, st); err != nil {
			b.Fatal(err)
		}
	}
}
