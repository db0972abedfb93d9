package reportlog

import (
	"fmt"
	"os"
	"testing"
	"time"
)

func record(i, size int) []byte {
	b := make([]byte, size)
	copy(b, fmt.Sprintf("record-%06d", i))
	return b
}

func replayCount(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	stats, err := Replay(dir, func([]byte) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated {
		t.Fatalf("unexpected torn tail in %s", dir)
	}
	return n
}

func TestGroupCommitSyncMakesBufferedRecordsVisible(t *testing.T) {
	dir := t.TempDir()
	// Large flushBytes and long interval: nothing commits on its own.
	w, err := Open(dir, 1<<20, WithGroupCommit(time.Hour, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(record(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Buffered only: the segment on disk holds nothing yet.
	if n := replayCount(t, dir); n != 0 {
		t.Fatalf("records visible before commit: %d", n)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := replayCount(t, dir); n != 10 {
		t.Fatalf("after Sync: %d records, want 10", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitFlushesOnByteThreshold(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 1<<20, WithGroupCommit(time.Hour, 1024))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// 12 records × (8+100) bytes cross the 1 KiB threshold: the Append
	// whose record does not fit writes the buffer itself...
	for i := 0; i < 12; i++ {
		if err := w.Append(record(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if n := replayCount(t, dir); n == 0 {
		t.Fatal("byte threshold did not write the buffer")
	}
	// ...and the woken flusher, not the hour-long tick, fsyncs it.
	deadline := time.Now().Add(5 * time.Second)
	for !w.clean() {
		if time.Now().After(deadline) {
			t.Fatal("byte threshold did not trigger a background commit")
		}
		time.Sleep(time.Millisecond)
	}
	// A record larger than the buffer is written through, buffered
	// records first, and never grows the buffer.
	if err := w.Append(record(12, 2048)); err != nil {
		t.Fatal(err)
	}
	if n := replayCount(t, dir); n != 13 {
		t.Fatalf("after an oversized record: %d records in the file, want 13", n)
	}
	w.mu.Lock()
	c := cap(w.buf)
	w.mu.Unlock()
	if c != 1024 {
		t.Fatalf("buffer capacity %d, want it held at flushBytes 1024", c)
	}
}

// clean reports whether everything written has been fsynced.
func (w *Writer) clean() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wgen > 0 && w.synced == w.wgen && len(w.retired) == 0
}

// TestAppendNeverWaitsForFsync holds smu — the lock every fsync runs
// under — as an in-flight fsync would, and appends across the byte
// threshold and several segment rotations. Every Append must return, with
// its bytes in the files, while no fsync can have run; the commit after
// smu is released makes all of it durable.
func TestAppendNeverWaitsForFsync(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 2048, WithGroupCommit(time.Hour, 512))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100 // × 72 framed bytes: ~14 threshold writes, 3 rotations
	w.smu.Lock()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := w.Append(record(i, 64)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Append blocked behind an in-flight fsync")
	}
	w.mu.Lock()
	wrote, retired, synced := w.wgen, len(w.retired), w.synced
	w.mu.Unlock()
	if wrote == 0 || synced != 0 || retired == 0 {
		t.Fatalf("under a held smu: %d writes, %d synced, %d rotated segments awaiting fsync; want writes, none synced, some awaiting", wrote, synced, retired)
	}
	if got := replayCount(t, dir); got == 0 || got == n {
		t.Fatalf("%d of %d records in the files; want the written ones, not the buffered tail", got, n)
	}
	w.smu.Unlock()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if !w.clean() {
		t.Fatal("Sync left written records unsynced")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayCount(t, dir); got != n {
		t.Fatalf("after Sync and Close: %d records, want %d", got, n)
	}
}

// closedFile returns a file handle whose every write and fsync fails.
func closedFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "closed")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	return f
}

// TestFsyncFailureIsSticky: an fsync failure — in the flusher, Sync or an
// unbuffered Sync — latches, so later appends and syncs refuse, Healthy
// reports it and Close returns it. A record acknowledged after a failed
// fsync could be lost with the unsynced pages.
func TestFsyncFailureIsSticky(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   []Option
		commit func(w *Writer) error
	}{
		{"flusher", []Option{WithGroupCommit(time.Hour, 1<<20)}, func(w *Writer) error {
			w.wake()
			deadline := time.Now().Add(5 * time.Second)
			for w.Healthy() == nil {
				if time.Now().After(deadline) {
					return fmt.Errorf("flusher never reported the failure")
				}
				time.Sleep(time.Millisecond)
			}
			return nil
		}},
		{"sync", []Option{WithGroupCommit(time.Hour, 1<<20)}, func(w *Writer) error {
			if err := w.Sync(); err == nil {
				return fmt.Errorf("Sync on a failing file succeeded")
			}
			return nil
		}},
		{"unbuffered", nil, func(w *Writer) error {
			if err := w.Sync(); err == nil {
				return fmt.Errorf("Sync on a failing file succeeded")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := Open(t.TempDir(), 1<<20, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(record(0, 64)); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			// Written but unsynced, on a file whose fsync fails.
			w.mu.Lock()
			real := w.f
			w.f = closedFile(t)
			w.wgen++
			w.mu.Unlock()
			defer real.Close()
			if err := tc.commit(w); err != nil {
				t.Fatal(err)
			}
			if err := w.Healthy(); err == nil {
				t.Fatal("Healthy reports no failure")
			}
			if err := w.Append(record(1, 64)); err == nil {
				t.Fatal("Append accepted a record after a failed fsync")
			}
			if err := w.Sync(); err == nil {
				t.Fatal("Sync succeeded after a failed fsync")
			}
			if err := w.Close(); err == nil {
				t.Fatal("Close hid the failed fsync")
			}
		})
	}
}

func TestGroupCommitIntervalFlush(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 1<<20, WithGroupCommit(5*time.Millisecond, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(record(0, 64)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for replayCount(t, dir) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval flusher never committed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGroupCommitRotationKeepsRecordBoundaries(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 1024, WithGroupCommit(time.Hour, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := w.Append(record(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", len(segs))
	}
	i := 0
	stats, err := Replay(dir, func(p []byte) error {
		want := fmt.Sprintf("record-%06d", i)
		if string(p[:len(want)]) != want {
			return fmt.Errorf("record %d out of order: %q", i, p[:len(want)])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != n || stats.Truncated {
		t.Fatalf("replayed %d records (truncated=%v), want %d", stats.Records, stats.Truncated, n)
	}
}

func TestGroupCommitCloseCommitsTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 1<<20, WithGroupCommit(time.Hour, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := w.Append(record(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := replayCount(t, dir); n != 7 {
		t.Fatalf("after Close: %d records, want 7", n)
	}
}

// TestGroupCommitConcurrentAppends races appenders, Sync callers, the
// interval and threshold commits, and segment rotation (run it under
// -race): every record must replay once, each appender's in its order.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, 2048, WithGroupCommit(time.Millisecond, 512))
	if err != nil {
		t.Fatal(err)
	}
	const appenders, syncers, per = 4, 2, 100
	done := make(chan error, appenders)
	for g := 0; g < appenders; g++ {
		go func(g int) {
			for i := 0; i < per; i++ {
				if err := w.Append(record(g*1000+i, 64)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	stop := make(chan struct{})
	synced := make(chan error, syncers)
	for s := 0; s < syncers; s++ {
		go func() {
			for {
				select {
				case <-stop:
					synced <- nil
					return
				default:
				}
				if err := w.Sync(); err != nil {
					synced <- err
					return
				}
			}
		}()
	}
	for g := 0; g < appenders; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for s := 0; s < syncers; s++ {
		if err := <-synced; err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := Segments(dir); len(segs) < 3 {
		t.Fatalf("%d segments: the test must rotate", len(segs))
	}
	next := make([]int, appenders)
	if _, err := Replay(dir, func(p []byte) error {
		var id int
		if _, err := fmt.Sscanf(string(p[:13]), "record-%06d", &id); err != nil {
			return err
		}
		if g, i := id/1000, id%1000; g >= appenders || i != next[g] {
			return fmt.Errorf("record %d out of order (appender %d expects %d)", id, g, next[g])
		}
		next[id/1000]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for g, n := range next {
		if n != per {
			t.Fatalf("appender %d: %d records replayed, want %d", g, n, per)
		}
	}
}

// BenchmarkAppend is the before/after pair for the group-commit change.
// The durability-equivalent baseline for group commit is write+Sync per
// record ("synced"); the historical default ("unbuffered") never fsynced
// on the append path at all and is kept for reference.
func BenchmarkAppend(b *testing.B) {
	payload := record(0, 512)
	run := func(name string, opts ...Option) {
		b.Run(name, func(b *testing.B) {
			w, err := Open(b.TempDir(), 1<<30, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			sync := name == "synced"
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
				if sync {
					if err := w.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	run("unbuffered")
	run("synced")
	run("groupcommit", WithGroupCommit(10*time.Millisecond, 256<<10))
}

// BenchmarkAppendBody persists one HTTP batch body of 1024 report frames
// (34 bytes each, the ingest-bulk shape) under ldpserver's group commit:
// one Append per frame, as the server did, against one Append of the
// whole body, as it does now. One op is one body; ns/report divides it.
func BenchmarkAppendBody(b *testing.B) {
	const frames, frameLen = 1024, 34
	body := make([]byte, frames*frameLen)
	for i := range body {
		body[i] = byte(i)
	}
	for _, perBody := range []bool{false, true} {
		name := "perframe"
		if perBody {
			name = "perbody"
		}
		b.Run(name, func(b *testing.B) {
			w, err := Open(b.TempDir(), 1<<30, WithGroupCommit(100*time.Millisecond, 256<<10))
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if perBody {
					err = w.Append(body)
				} else {
					for off := 0; off < len(body) && err == nil; off += frameLen {
						err = w.Append(body[off : off+frameLen])
					}
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/report")
		})
	}
}
