package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"ldp/internal/dataset"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/transport"
)

// buildServer compiles the real ldpserver binary; the lifecycle tests
// exercise actual POSIX signal delivery, not an in-process stand-in.
func buildServer(t *testing.T) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("lifecycle tests use POSIX signals")
	}
	if testing.Short() {
		t.Skip("skipping binary build in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "ldpserver")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a loopback port. The listener is closed before the
// server starts, so there is a small reuse race — acceptable for a test
// that binds immediately after.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitReady polls /readyz until the server answers 200 (the readiness
// probe doubles as the "process is up" gate).
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("server at %s never became ready", base)
}

// statsN reads the aggregate report count off /v1/stats.
func statsN(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		N int64 `json:"n"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.N
}

// TestSIGTERMDrainsAndLosesNothing is the clean-restart durability
// contract end to end, against the real binary: ingest acked reports
// into a group-commit WAL whose interval (1h) guarantees nothing is
// durable until a flush, SIGTERM the process, restart it, and require
// every acked report back. Only the shutdown path's ordered
// drain-then-commit makes this pass — an unclean kill would lose the
// entire buffer.
func TestSIGTERMDrainsAndLosesNothing(t *testing.T) {
	bin := buildServer(t)
	logdir := filepath.Join(t.TempDir(), "wal")
	addr := freeAddr(t)
	base := "http://" + addr

	start := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", addr, "-dataset", "br", "-eps", "1",
			"-logdir", logdir,
			"-log-sync", "1h", "-log-sync-bytes", fmt.Sprint(1<<30),
			"-drain", "5s", "-log-level", "warn",
		)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	sigterm := func(cmd *exec.Cmd) {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("server did not exit cleanly on SIGTERM: %v", err)
			}
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			t.Fatal("server did not exit within 20s of SIGTERM")
		}
	}

	cmd := start()
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	waitReady(t, base)

	// Ingest through the public client; every SendReport that returns nil
	// was acked with a 200 and must survive the restart.
	c := dataset.NewBR()
	p, err := pipeline.New(c.Schema(), 1)
	if err != nil {
		t.Fatal(err)
	}
	client := transport.NewPipelineClient(base, p)
	const n = 200
	ctx := context.Background()
	for i := 0; i < n; i++ {
		r := rng.NewStream(99, uint64(i))
		rep, err := p.Randomize(c.Tuple(r), r)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.SendReport(ctx, rep); err != nil {
			t.Fatalf("send report %d: %v", i, err)
		}
	}
	if got := statsN(t, base); got != n {
		t.Fatalf("pre-restart stats n = %d, want %d", got, n)
	}

	sigterm(cmd)

	cmd = start()
	waitReady(t, base)
	if got := statsN(t, base); got != n {
		t.Errorf("post-restart stats n = %d, want %d (acked reports lost across clean restart)", got, n)
	}
	sigterm(cmd)
}

// TestSIGTERMEdgeFinalPush checks the edge half of the lifecycle: an
// edge that ingested reports but whose push interval (1h) never fired
// still delivers everything to the root during shutdown, via the final
// best-effort push.
func TestSIGTERMEdgeFinalPush(t *testing.T) {
	bin := buildServer(t)
	rootAddr, edgeAddr := freeAddr(t), freeAddr(t)
	rootBase, edgeBase := "http://"+rootAddr, "http://"+edgeAddr
	rootLog := filepath.Join(t.TempDir(), "rootwal")
	edgeLog := filepath.Join(t.TempDir(), "edgewal")

	root := exec.Command(bin,
		"-addr", rootAddr, "-dataset", "br", "-eps", "1",
		"-logdir", rootLog, "-drain", "5s", "-log-level", "warn")
	root.Stdout, root.Stderr = os.Stderr, os.Stderr
	if err := root.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		root.Process.Kill()
		root.Wait()
	}()
	waitReady(t, rootBase)

	edge := exec.Command(bin,
		"-addr", edgeAddr, "-dataset", "br", "-eps", "1",
		"-mode", "edge", "-push-to", rootBase, "-edge-id", "edge-life",
		"-push-interval", "1h",
		"-logdir", edgeLog, "-drain", "5s", "-log-level", "warn")
	edge.Stdout, edge.Stderr = os.Stderr, os.Stderr
	if err := edge.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if edge.ProcessState == nil {
			edge.Process.Kill()
			edge.Wait()
		}
	}()
	waitReady(t, edgeBase)

	c := dataset.NewBR()
	p, err := pipeline.New(c.Schema(), 1)
	if err != nil {
		t.Fatal(err)
	}
	client := transport.NewPipelineClient(edgeBase, p)
	const n = 120
	ctx := context.Background()
	for i := 0; i < n; i++ {
		r := rng.NewStream(7, uint64(i))
		rep, err := p.Randomize(c.Tuple(r), r)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.SendReport(ctx, rep); err != nil {
			t.Fatalf("send report %d: %v", i, err)
		}
	}
	if got := statsN(t, rootBase); got != 0 {
		t.Fatalf("root has %d reports before any push (interval is 1h)", got)
	}

	if err := edge.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- edge.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("edge did not exit cleanly: %v", err)
		}
	case <-time.After(20 * time.Second):
		edge.Process.Kill()
		t.Fatal("edge did not exit within 20s of SIGTERM")
	}

	if got := statsN(t, rootBase); got != n {
		t.Errorf("root has %d reports after edge shutdown, want %d (final push missed)", got, n)
	}
}

// metricValue reads one unlabelled series off /metrics.
func metricValue(t *testing.T, base, name string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return ""
}

// TestSIGKILLRestartReplaysOnlyTheTail runs the checkpointed restart
// path on the real binary. A clean SIGTERM leaves a checkpoint at the
// log's end, so the next start restores everything and replays nothing;
// a kill -9 skips the final checkpoint, so the next start restores the
// last checkpoint and replays exactly the reports acked after it. Every
// acked report survives both (the log writes through, so a killed
// process loses nothing the kernel has).
func TestSIGKILLRestartReplaysOnlyTheTail(t *testing.T) {
	bin := buildServer(t)
	logdir := filepath.Join(t.TempDir(), "wal")
	addr := freeAddr(t)
	base := "http://" + addr
	start := func() *exec.Cmd {
		cmd := exec.Command(bin, "-addr", addr, "-dataset", "br", "-eps", "1", "-range",
			"-logdir", logdir, "-drain", "5s", "-log-level", "warn")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waitReady(t, base)
		return cmd
	}
	stop := func(cmd *exec.Cmd, sig syscall.Signal) {
		t.Helper()
		if err := cmd.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
		err := cmd.Wait()
		if sig == syscall.SIGTERM && err != nil {
			t.Fatalf("server did not exit cleanly on SIGTERM: %v", err)
		}
	}
	c := dataset.NewBR()
	p, err := pipeline.New(c.Schema(), 1, pipeline.WithRange(rangequery.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	client := transport.NewPipelineClient(base, p)
	send := func(first, n int) {
		t.Helper()
		reps := make([]pipeline.Report, n)
		for i := range reps {
			r := rng.NewStream(5, uint64(first+i))
			if reps[i], err = p.Randomize(c.Tuple(r), r); err != nil {
				t.Fatal(err)
			}
		}
		if err := client.SendReports(context.Background(), reps); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(n int64, restored, replayed string) {
		t.Helper()
		if got := statsN(t, base); got != n {
			t.Errorf("n = %d after restart, want %d", got, n)
		}
		if got := metricValue(t, base, "ldp_checkpoint_restored_reports"); got != restored {
			t.Errorf("restored %s reports from the checkpoint, want %s", got, restored)
		}
		if got := metricValue(t, base, "ldp_wal_replayed_records"); got != replayed {
			t.Errorf("replayed %s log records, want %s", got, replayed)
		}
	}

	cmd := start()
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	send(0, 200)
	stop(cmd, syscall.SIGTERM)

	cmd = start()
	expect(200, "200", "0")
	send(200, 100)
	stop(cmd, syscall.SIGKILL)

	cmd = start()
	expect(300, "200", "100")
	stop(cmd, syscall.SIGTERM)

	cmd = start()
	expect(300, "300", "0")
	stop(cmd, syscall.SIGTERM)
}
