package chaos

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"ldp/internal/checkpoint"
	"ldp/internal/pipeline"
	"ldp/internal/reportlog"
	"ldp/internal/transport"
)

// ckptNode is a checkpointing aggregator on a 4 KiB-segment report log,
// wired as cmd/ldpserver wires it.
type ckptNode struct {
	t       *testing.T
	p       *pipeline.Pipeline
	wal     *reportlog.Writer
	ps      *transport.PipelineServer
	cp      *checkpoint.Checkpointer
	rotated chan struct{}
}

func openCkptNode(t *testing.T, dir string, fs FS) *ckptNode {
	t.Helper()
	n := &ckptNode{t: t, p: testPipeline(t), rotated: make(chan struct{}, 1)}
	rec, err := checkpoint.Recover(dir, n.p)
	if err != nil {
		t.Fatal(err)
	}
	if n.wal, err = reportlog.Open(dir, 4<<10, reportlog.WithRotateSignal(n.rotated)); err != nil {
		t.Fatal(err)
	}
	n.ps = transport.NewPipelineServer(n.p, n.wal)
	n.cp = checkpoint.New(checkpoint.Config{Dir: dir, Server: n.ps, WAL: n.wal, FS: fs, From: rec})
	return n
}

// feed posts reps in batches of 20, cutting a checkpoint after each batch
// that rotated the log, and returns how many checkpoint attempts failed.
func (n *ckptNode) feed(reps []pipeline.Report) int {
	n.t.Helper()
	failed := 0
	for len(reps) > 0 {
		k := min(20, len(reps))
		var body []byte
		for _, rep := range reps[:k] {
			var err error
			if body, err = transport.AppendEnvelope(body, rep); err != nil {
				n.t.Fatal(err)
			}
		}
		reps = reps[k:]
		w := httptest.NewRecorder()
		n.ps.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(body)))
		if w.Code != http.StatusNoContent {
			n.t.Fatalf("POST /v1/report: %d %s", w.Code, w.Body.String())
		}
		select {
		case <-n.rotated:
			if _, err := n.cp.Checkpoint(); err != nil {
				failed++
			}
		default:
		}
	}
	return failed
}

// crash stops the node without a final checkpoint; the unbuffered WAL
// has every acked record in its file, as after a SIGKILL.
func (n *ckptNode) crash() {
	n.t.Helper()
	if err := n.wal.Close(); err != nil {
		n.t.Fatal(err)
	}
}

// TestCheckpointFaultsKeepRestartExact fails each durability step of a
// checkpoint — tmp write (torn), tmp fsync, rename, directory fsync,
// segment delete — and crashes right after the failed attempt. The
// restart must recover estimates bit-identical to the durable totals,
// and checkpointing must resume cleanly afterwards.
func TestCheckpointFaultsKeepRestartExact(t *testing.T) {
	for _, step := range FSSteps {
		t.Run(step.String(), func(t *testing.T) {
			dir := t.TempDir()
			ref := testPipeline(t)
			reps := quantReports(t, ref, 31, 1500)
			fs := NewFaultyFS(checkpoint.OSFS{})

			n := openCkptNode(t, dir, fs)
			if failed := n.feed(reps[:500]); failed != 0 {
				t.Fatalf("%d checkpoints failed before any fault was armed", failed)
			}
			if n.cp.Last() == (reportlog.Position{}) {
				t.Fatal("no checkpoint before the fault")
			}
			before, err := os.ReadFile(filepath.Join(dir, checkpoint.FileName))
			if err != nil {
				t.Fatal(err)
			}
			fs.Arm(step, 1)
			fed, failed := 500, 0
			for ; fed < 1000 && fs.Failures() == 0; fed += 20 {
				failed += n.feed(reps[fed : fed+20])
			}
			if fs.Failures() != 1 || failed != 1 {
				t.Fatalf("%s fault: %d injected, %d checkpoint attempts failed; want 1 and 1", step, fs.Failures(), failed)
			}
			after, err := os.ReadFile(filepath.Join(dir, checkpoint.FileName))
			if err != nil {
				t.Fatal(err)
			}
			if replaced := !bytes.Equal(before, after); replaced != (step >= StepDirFsync) {
				t.Fatalf("%s fault: checkpoint replaced = %v", step, replaced)
			}
			n.crash()

			addAll(t, reps[:fed], ref)
			n = openCkptNode(t, dir, fs)
			assertSameEstimates(t, "restart after a "+step.String()+" fault", ref, n.p)
			if _, err := os.Stat(filepath.Join(dir, checkpoint.FileName+".tmp")); !os.IsNotExist(err) {
				t.Fatalf("stale temporary survived the restart: %v", err)
			}

			// Checkpointing resumes, reclaiming what the fault left behind.
			if failed := n.feed(reps[fed:]); failed != 0 {
				t.Fatalf("%d checkpoints failed after the fault cleared", failed)
			}
			n.crash()
			addAll(t, reps[fed:], ref)
			n = openCkptNode(t, dir, fs)
			assertSameEstimates(t, "restart after recovery from a "+step.String()+" fault", ref, n.p)
			segs, err := reportlog.Segments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) > 2 {
				t.Fatalf("%d segments on disk after checkpointing resumed: %v", len(segs), segs)
			}
			n.crash()
		})
	}
}
