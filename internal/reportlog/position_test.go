package reportlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldp/internal/telemetry"
)

// appendN appends records first..first+n-1 (payload "rec-NNNN").
func appendN(t *testing.T, w *Writer, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

// collect recovers dir from pos and returns the payloads replayed.
func collect(t *testing.T, dir string, pos Position) ([]string, ReplayStats) {
	t.Helper()
	var got []string
	stats, err := RecoverFrom(dir, pos, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

// TestRecoverFromPositionReplaysOnlyTheTail cuts positions across segment
// boundaries and checks RecoverFrom delivers exactly the records appended
// after each, with End at the log's end.
func TestRecoverFromPositionReplaysOnlyTheTail(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 1024) // ~64 records of 16 framed bytes per segment
	var cuts []Position
	for k := 0; k < 10; k++ {
		cuts = append(cuts, w.Position())
		appendN(t, w, 30*k, 30)
	}
	end := w.Position()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if end.Seq < 3 {
		t.Fatalf("log did not rotate enough: end %v", end)
	}
	for k, pos := range cuts {
		got, stats := collect(t, dir, pos)
		if len(got) != 300-30*k || stats.Records != len(got) {
			t.Fatalf("from %v: replayed %d records (stats %d), want %d", pos, len(got), stats.Records, 300-30*k)
		}
		if got[0] != fmt.Sprintf("rec-%04d", 30*k) {
			t.Fatalf("from %v: first record %q, want rec-%04d", pos, got[0], 30*k)
		}
		if stats.End != end || stats.Truncated {
			t.Fatalf("from %v: end %v truncated %v, want %v", pos, stats.End, stats.Truncated, end)
		}
	}
	// From the end itself: nothing to replay, and End stays put.
	got, stats := collect(t, dir, end)
	if len(got) != 0 || stats.End != end {
		t.Fatalf("from the end: replayed %d, end %v", len(got), stats.End)
	}
}

// TestRecoverFromTruncatesTornTailInOnePass tears the last record and
// checks the positioned pass delivers the intact tail, truncates the torn
// record, and leaves a log that reopens and appends cleanly.
func TestRecoverFromTruncatesTornTailInOnePass(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 1<<20)
	appendN(t, w, 0, 10)
	cut := w.Position()
	appendN(t, w, 10, 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, dir, cut)
	if len(got) != 9 || !stats.Truncated || stats.End.Off != stats.Offset {
		t.Fatalf("replayed %d records, truncated %v, end %v offset %d", len(got), stats.Truncated, stats.End, stats.Offset)
	}
	if st, _ := os.Stat(seg); st.Size() != stats.Offset {
		t.Fatalf("segment is %d bytes after recovery, want %d", st.Size(), stats.Offset)
	}
	w = openT(t, dir, 1<<20)
	if w.Position() != stats.End {
		t.Fatalf("reopened writer at %v, recovery ended at %v", w.Position(), stats.End)
	}
	appendN(t, w, 100, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = collect(t, dir, cut)
	if len(got) != 10 || got[9] != "rec-0100" {
		t.Fatalf("after reopen: %d records, last %q", len(got), got[len(got)-1])
	}
}

// TestRecoverFromRejectsLogEndingBeforePosition covers the two ways a log
// can lose records a checkpoint says precede its tail: a missing segment
// and a segment shorter than the offset.
func TestRecoverFromRejectsLogEndingBeforePosition(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 1<<20)
	appendN(t, w, 0, 10)
	pos := w.Position()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverFrom(dir, Position{Seq: 2}, nil); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing segment: err %v", err)
	}
	if _, err := RecoverFrom(dir, Position{Seq: pos.Seq, Off: pos.Off + 1}, nil); err == nil {
		t.Error("offset past the segment end: want error")
	}
	// A log whose head was reclaimed refuses a from-the-start replay.
	w = openT(t, dir, 1024)
	appendN(t, w, 10, 200)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := Reclaim(dir, Position{Seq: 2}, nil); err != nil || n != 1 {
		t.Fatalf("reclaim: %d, %v", n, err)
	}
	if _, err := Replay(dir, func([]byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "reclaimed") {
		t.Errorf("replay of a reclaimed log: err %v", err)
	}
}

// TestReclaimDeletesOnlySegmentsBelowPosition checks the disk bound: after
// Reclaim(P) only P's segment and later ones remain, and a failing
// remover stops the sweep with an error.
func TestReclaimDeletesOnlySegmentsBelowPosition(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 1024)
	appendN(t, w, 0, 300)
	pos := w.Position()
	appendN(t, w, 300, 100)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	failing := errors.New("disk says no")
	if n, err := Reclaim(dir, pos, func(string) error { return failing }); n != 0 || !errors.Is(err, failing) {
		t.Fatalf("failing remover: %d, %v", n, err)
	}
	n, err := Reclaim(dir, pos, nil)
	if err != nil || n != pos.Seq-1 {
		t.Fatalf("reclaim: removed %d (%v), want %d", n, err, pos.Seq-1)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seqOf(segs[0]) != pos.Seq {
		t.Fatalf("first remaining segment %s, want %s", segs[0], segName(pos.Seq))
	}
	got, _ := collect(t, dir, pos)
	if len(got) != 100 {
		t.Fatalf("tail after reclaim: %d records, want 100", len(got))
	}
}

// TestRotateSignalFiresOncePerRotation checks the checkpoint trigger: no
// signal for the first segment, one per rotation after it (coalesced
// when the receiver lags).
func TestRotateSignalFiresOncePerRotation(t *testing.T) {
	dir := t.TempDir()
	ch := make(chan struct{}, 1)
	w, err := Open(dir, 1024, WithRotateSignal(ch))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	select {
	case <-ch:
		t.Fatal("opening a fresh log signalled a rotation")
	default:
	}
	rotations := 0
	for i := 0; i < 400; i++ {
		before := w.Position().Seq
		appendN(t, w, i, 1)
		if w.Position().Seq != before {
			rotations++
			select {
			case <-ch:
			default:
				t.Fatalf("rotation to %s sent no signal", segName(w.Position().Seq))
			}
		}
	}
	if rotations < 3 {
		t.Fatalf("only %d rotations", rotations)
	}
}

// TestClosedWriterRefusesAppends: records appended after Close would sit
// in a buffer no commit ever writes, so Append must fail instead.
func TestClosedWriterRefusesAppends(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithGroupCommit(0, 0)}} {
		w, err := Open(t.TempDir(), 1<<20, opts...)
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, 0, 3)
		pos := w.Position()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Append([]byte("late")); !errors.Is(err, ErrClosed) {
			t.Errorf("append after close: %v", err)
		}
		if err := w.Sync(); !errors.Is(err, ErrClosed) {
			t.Errorf("sync after close: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Errorf("second close: %v", err)
		}
		if w.Position() != pos {
			t.Errorf("position moved after close: %v -> %v", pos, w.Position())
		}
	}
}

// TestWALMetrics checks the ldp_wal_* families read the Writer's state.
func TestWALMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	w, err := Open(dir, 1024, WithGroupCommit(0, 1<<20), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 200)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	segs, _ := Segments(dir)
	for _, want := range []string{
		fmt.Sprintf("ldp_wal_bytes_total %d\n", 200*(headerSize+8)),
		fmt.Sprintf("ldp_wal_segments %d\n", len(segs)),
		"ldp_wal_error 0\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if strings.Contains(sb.String(), "ldp_wal_commit_duration_ns_count 0\n") {
		t.Error("commits were not timed")
	}
	w.Close()
}
