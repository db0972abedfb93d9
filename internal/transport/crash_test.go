package transport

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ldp/internal/cluster"
	"ldp/internal/pipeline"
	"ldp/internal/reportlog"
)

// postReports ships reports to a server's /v1/report exactly like
// PipelineClient does: one body of concatenated envelope frames.
func postReports(t *testing.T, url string, reps []pipeline.Report) {
	t.Helper()
	var body []byte
	var err error
	for _, rep := range reps {
		if body, err = AppendEnvelope(body, rep); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url+"/v1/report", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST /v1/report: status %d", resp.StatusCode)
	}
}

// TestEdgeCrashRecoveryRepush kills an edge mid-ingest and proves the
// restart path end to end: everything the WAL made durable survives,
// replays into a fresh pipeline, and the new forwarder's resync+delta
// push lands the root on exactly the durable totals — the 200 reports
// pushed before the crash are not double-counted, and the 100 durable
// but unpushed reports are not lost. The buffered tail that never
// reached disk is gone, which is the documented group-commit window.
func TestEdgeCrashRecoveryRepush(t *testing.T) {
	root := newTestPipeline(t)
	rootSrv := httptest.NewServer(NewPipelineServer(root, nil))
	defer rootSrv.Close()

	walDir := t.TempDir()
	// Group commit with thresholds nothing reaches: records hit disk only
	// on explicit Sync, which is what makes the crash window observable.
	wal, err := reportlog.Open(walDir, 1<<20, reportlog.WithGroupCommit(time.Hour, 1<<20))
	if err != nil {
		t.Fatal(err)
	}

	edge := newTestPipeline(t)
	edgeSrv := httptest.NewServer(NewPipelineServer(edge, wal))
	reps := quantizedReports(t, edge, 71, 350)
	ctx := context.Background()

	// Phase 1: 200 reports ingested over HTTP and pushed to the root.
	// The forwarder's Sync hook commits the WAL before the push, so
	// everything the root has acked is durable on the edge.
	postReports(t, edgeSrv.URL, reps[:200])
	fw, err := cluster.NewForwarder(edge, cluster.ForwarderConfig{
		RootURL: rootSrv.URL,
		EdgeID:  "edge-crash",
		Sync:    wal.Sync,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Push(ctx); err != nil {
		t.Fatal(err)
	}

	// Phase 2: 100 more reports, committed durably, but the edge dies
	// before the next push; then 50 more that only ever reach the group-
	// commit buffer.
	postReports(t, edgeSrv.URL, reps[200:300])
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	postReports(t, edgeSrv.URL, reps[300:350])
	// Crash: the server goes away and the writer is abandoned without
	// Close, so the buffered tail never reaches disk.
	edgeSrv.Close()

	// Restart: recover the log (repairing any torn tail) and replay it
	// into a fresh pipeline in one pass, as cmd/ldpserver does on boot
	// when no checkpoint exists.
	edge2 := newTestPipeline(t)
	n, err := ReplayPipeline(edge2, func(fn func([]byte) error) error {
		_, err := reportlog.RecoverFrom(walDir, reportlog.Position{}, fn)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("replayed %d reports, want 300 (200 pushed + 100 durable)", n)
	}

	// The reborn forwarder resyncs against the root — learning the 200
	// already-applied reports — and pushes only the durable delta.
	fw2, err := cluster.NewForwarder(edge2, cluster.ForwarderConfig{
		RootURL: rootSrv.URL,
		EdgeID:  "edge-crash",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw2.Push(ctx); err != nil {
		t.Fatal(err)
	}
	if seq, reports := fw2.Acked(); reports != 300 {
		t.Fatalf("acked watermark: seq %d, %d reports, want 300", seq, reports)
	}

	// Root totals are bit-identical to a single node that ingested the
	// 300 durable reports directly.
	ref := newTestPipeline(t)
	addAll(t, ref, reps[:300])
	assertSameEstimates(t, root, ref)
}
