// Package reportlog is an append-only, segmented, CRC-checked log for the
// raw report frames an aggregator receives. It gives the collection
// pipeline durability: the aggregator's in-memory state can be rebuilt by
// replaying the log after a crash.
//
// Record layout (little endian):
//
//	[ length uint32 ][ crc32(payload) uint32 ][ payload ... ]
//
// Segments are named seg-NNNNNN.log and rotated when they exceed the
// configured size. A Position names a point in the log (segment sequence
// number plus byte offset); RecoverFrom streams every intact record from
// a position in one pass and truncates a torn or corrupt tail (the
// expected state after a crash mid-write) in the same pass, so appends
// can resume safely. A state checkpoint taken at position P makes the
// segments wholly below P dead weight; Reclaim deletes them.
package reportlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ldp/internal/telemetry"
)

const (
	headerSize = 8
	segPrefix  = "seg-"
	segSuffix  = ".log"
)

// ErrClosed is the sticky error of a closed Writer: appends and syncs
// after Close fail instead of buffering records no commit will ever
// write.
var ErrClosed = errors.New("reportlog: writer closed")

// ErrCorruptRecord reports a record whose checksum did not match; it is
// wrapped in errors returned by Replay when strict verification is on.
var ErrCorruptRecord = errors.New("reportlog: corrupt record")

// MaxRecordSize bounds a single record payload (a defensive limit against
// reading a garbage length field as a huge allocation).
const MaxRecordSize = 16 << 20

// Writer appends records to the newest segment of a log directory.
// Appends are internally serialized, so concurrent use is safe; callers
// that need multi-record atomicity (one HTTP batch = several records)
// still guard externally, as the transport server does.
type Writer struct {
	mu          sync.Mutex
	dir         string
	segmentSize int64
	f           *os.File
	seq         int
	size        int64 // bytes already written to the current segment

	// Group-commit state (zero when disabled): records accumulate in buf
	// and reach the file — followed by one fsync — when buf crosses
	// flushBytes, when the interval flusher fires, or on Sync/Close.
	buf        []byte
	flushBytes int
	interval   time.Duration
	dirty      bool          // file has writes not yet fsynced
	ferr       error         // sticky background-flush failure
	stop       chan struct{} // closes the interval flusher
	done       chan struct{} // flusher exited

	rotated  chan<- struct{}      // signalled (non-blocking) after each rotation
	appended int64                // framed bytes accepted by Append
	commitNs *telemetry.Histogram // commit latency (nil: not instrumented)
	reg      *telemetry.Registry
}

// Option configures a Writer.
type Option func(*Writer)

// WithGroupCommit batches appends in memory and commits them — one
// write(2) plus one fsync — when flushBytes have accumulated or the
// interval elapses, whichever comes first. This replaces per-record
// write(2) calls (and the per-request Sync a durability-conscious caller
// would otherwise need) with two syscalls per group: the classic WAL
// group-commit trade of a bounded durability window (at most interval)
// for an order-of-magnitude cheaper append path. Sync still forces an
// immediate commit, so callers with a stronger requirement (the cluster
// forwarder before a push) keep their guarantee.
//
// A non-positive flushBytes defaults to 256 KiB; a non-positive interval
// defaults to 100ms.
func WithGroupCommit(interval time.Duration, flushBytes int) Option {
	return func(w *Writer) {
		if flushBytes <= 0 {
			flushBytes = 256 << 10
		}
		if interval <= 0 {
			interval = 100 * time.Millisecond
		}
		w.flushBytes = flushBytes
		w.interval = interval
	}
}

// WithRotateSignal makes the Writer do a non-blocking send on ch after
// every segment rotation, so a checkpointer can cut state once per
// segment of growth without polling. Give ch a buffer of one: a signal
// that finds it full is dropped, which only coalesces rotations the
// receiver has not yet handled.
func WithRotateSignal(ch chan<- struct{}) Option {
	return func(w *Writer) { w.rotated = ch }
}

// WithTelemetry registers the ldp_wal_* metric families on reg: commit
// latency, bytes appended, live segments, and the sticky-error gauge.
// Everything but the commit histogram is read at scrape time; the append
// path gains one addition under the lock it already holds.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(w *Writer) { w.reg = reg }
}

// registerMetrics exposes the Writer's state on its registry (a no-op
// without one).
func (w *Writer) registerMetrics() {
	if w.reg == nil {
		return
	}
	w.commitNs = w.reg.Histogram("ldp_wal_commit_duration_ns",
		"Report log commit latency in nanoseconds: write(2) of the buffered records plus fsync.")
	w.reg.CounterFunc("ldp_wal_bytes_total",
		"Framed bytes appended to the report log since start.",
		func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			return float64(w.appended)
		})
	w.reg.GaugeFunc("ldp_wal_segments",
		"Report log segment files on disk.",
		func() float64 {
			segs, err := Segments(w.dir)
			if err != nil {
				return -1
			}
			return float64(len(segs))
		})
	w.reg.GaugeFunc("ldp_wal_error",
		"1 once a report log write or fsync has failed (the Writer refuses appends until restart), else 0.",
		func() float64 {
			if w.Healthy() != nil {
				return 1
			}
			return 0
		})
}

// Open prepares dir (created if missing) for appending, continuing after
// the newest existing segment. segmentSize is the rotation threshold in
// bytes (minimum 1 KiB). With no options the Writer behaves as it always
// has: one write(2) per record, durability only on Sync/Close.
func Open(dir string, segmentSize int64, opts ...Option) (*Writer, error) {
	if segmentSize < 1024 {
		return nil, fmt.Errorf("reportlog: segment size %d below 1KiB minimum", segmentSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reportlog: create dir: %w", err)
	}
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, segmentSize: segmentSize}
	for _, opt := range opts {
		opt(w)
	}
	if len(segs) == 0 {
		if err := w.rotate(); err != nil {
			return nil, err
		}
	} else {
		last := segs[len(segs)-1]
		w.seq = seqOf(last)
		f, err := os.OpenFile(filepath.Join(dir, last), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("reportlog: open segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("reportlog: stat segment: %w", err)
		}
		w.f, w.size = f, st.Size()
	}
	w.registerMetrics()
	if w.interval > 0 {
		w.stop, w.done = make(chan struct{}), make(chan struct{})
		go w.flusher()
	}
	return w, nil
}

// flusher is the interval half of group commit: it bounds how long a
// buffered (or written-but-unsynced) record can stay volatile.
func (w *Writer) flusher() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if err := w.commitLocked(); err != nil && w.ferr == nil {
				// Surface the failure on the next Append/Sync instead of
				// losing records silently.
				w.ferr = err
			}
			w.mu.Unlock()
		}
	}
}

func segName(seq int) string { return fmt.Sprintf("%s%06d%s", segPrefix, seq, segSuffix) }

func seqOf(name string) int {
	var seq int
	fmt.Sscanf(name, segPrefix+"%06d"+segSuffix, &seq)
	return seq
}

// Position locates a record boundary in the log: byte offset Off of
// segment Seq. The zero Position is the start of the log.
type Position struct {
	Seq int
	Off int64
}

func (p Position) String() string { return fmt.Sprintf("%s@%d", segName(p.Seq), p.Off) }

// Position returns the position just past the last appended record,
// buffered records included: every record appended so far lies before
// it, every later one at or after it.
func (w *Writer) Position() Position {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Position{Seq: w.seq, Off: w.size + int64(len(w.buf))}
}

// Segments lists the log's segment file names in replay order.
func Segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("reportlog: list segments: %w", err)
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && len(name) > len(segPrefix)+len(segSuffix) &&
			name[:len(segPrefix)] == segPrefix && filepath.Ext(name) == segSuffix {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func (w *Writer) rotate() error {
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("reportlog: close segment: %w", err)
		}
	}
	w.seq++
	f, err := os.OpenFile(filepath.Join(w.dir, segName(w.seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("reportlog: create segment: %w", err)
	}
	grew := w.f != nil
	w.f, w.size = f, 0
	if grew && w.rotated != nil {
		select {
		case w.rotated <- struct{}{}:
		default:
		}
	}
	return nil
}

// Append writes one record. The payload is copied into the record frame;
// it may be reused by the caller afterwards. Under group commit the
// record lands in the in-memory buffer (no syscall) and becomes durable
// at the next commit point; otherwise it is written through immediately.
func (w *Writer) Append(payload []byte) error {
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("reportlog: record of %d bytes exceeds limit %d", len(payload), MaxRecordSize)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ferr != nil {
		return w.ferr
	}
	if w.size+int64(len(w.buf)) >= w.segmentSize {
		// Commit buffered records into the old segment before rotating so
		// file boundaries stay record boundaries.
		if err := w.commitLocked(); err != nil {
			return err
		}
		if err := w.rotate(); err != nil {
			return err
		}
	}
	w.appended += int64(headerSize + len(payload))
	if w.flushBytes > 0 {
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		w.buf = append(w.buf, hdr[:]...)
		w.buf = append(w.buf, payload...)
		if len(w.buf) >= w.flushBytes {
			return w.commitLocked()
		}
		return nil
	}
	return w.writeLocked(payload)
}

// writeLocked is the unbuffered append path: header + payload straight
// to the file.
func (w *Writer) writeLocked(payload []byte) error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("reportlog: write header: %w", err)
	}
	if _, err := w.f.Write(payload); err != nil {
		return fmt.Errorf("reportlog: write payload: %w", err)
	}
	w.size += int64(headerSize + len(payload))
	return nil
}

// commitLocked makes every buffered record durable: one write(2) for the
// whole buffer, one fsync. Without group commit it is a plain fsync (and
// skipped entirely while nothing new has been written).
func (w *Writer) commitLocked() error {
	if len(w.buf) == 0 && !w.dirty && w.flushBytes > 0 {
		return nil
	}
	if w.commitNs != nil {
		defer w.commitNs.ObserveSince(time.Now())
	}
	if len(w.buf) > 0 {
		n, err := w.f.Write(w.buf)
		if err != nil {
			// A short write leaves a torn record at the tail — exactly the
			// state Recover handles. Drop the unwritten suffix and stop
			// accepting appends via the sticky error.
			w.size += int64(n)
			w.ferr = fmt.Errorf("reportlog: flush: %w", err)
			return w.ferr
		}
		w.size += int64(n)
		w.buf = w.buf[:0]
		w.dirty = true
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("reportlog: sync: %w", err)
	}
	w.dirty = false
	return nil
}

// Healthy reports whether the Writer can still accept appends: nil
// normally, the sticky failure once a flush — foreground or the interval
// flusher's — has failed. Readiness probes use it, so a server whose disk
// died stops attracting traffic before clients see their 500s.
func (w *Writer) Healthy() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ferr
}

// Sync commits buffered records and flushes the current segment to
// stable storage.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ferr != nil {
		return w.ferr
	}
	return w.commitLocked()
}

// Close commits, syncs, and closes the current segment, stopping the
// interval flusher if one is running. Later appends and syncs fail with
// ErrClosed; Position keeps answering, so a final checkpoint can be cut
// after the last commit.
func (w *Writer) Close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
		w.stop = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ferr == ErrClosed {
		return nil
	}
	cerr := w.ferr
	if cerr == nil {
		cerr = w.commitLocked()
	}
	if err := w.f.Close(); cerr == nil {
		cerr = err
	}
	w.ferr = ErrClosed
	return cerr
}

// ReplayStats summarizes a replay.
type ReplayStats struct {
	// Records is the number of intact records delivered.
	Records int
	// Truncated is true if a torn or corrupt tail record was found (and
	// replay stopped there).
	Truncated bool
	// Segment and Offset locate the start of the bad tail when Truncated.
	Segment string
	Offset  int64
	// End is the position just past the last intact record delivered
	// (the start position when none was): where appends resume after
	// RecoverFrom.
	End Position
}

// replayBufSize is the bufio window replay reads segments through: large
// enough that a restart streams the log in quarter-megabyte read(2)
// calls instead of two tiny reads per record.
const replayBufSize = 256 << 10

// Replay feeds every intact record in order to fn. It stops without error
// at the first torn or corrupt record — the normal post-crash state —
// reporting it in the stats. An error from fn aborts the replay. Replay
// only reads; RecoverFrom is the restart path.
//
// The payload slice is reused between calls: fn must copy anything it
// keeps past its return (the transport decoders already do — they unpack
// frames into their own structures).
func Replay(dir string, fn func(payload []byte) error) (ReplayStats, error) {
	return scan(dir, Position{}, fn)
}

// RecoverFrom is the single-pass restart path: it feeds every intact
// record at or after from to fn (nil: just scan), then truncates any torn
// or corrupt tail and removes the segments after it, so appending can
// resume on a clean prefix. Segments below from.Seq are never opened —
// a checkpoint covering them makes them dead weight (see Reclaim). A
// log that ends before from (its segment missing, or shorter than
// from.Off) is an error: the records the checkpoint says precede the
// tail are gone, so appending there would misplace every later record.
// So is recovering from the zero Position a log whose first segments
// were reclaimed: the records they held are only in a checkpoint.
// fn's payload slice is reused between calls, as in Replay.
func RecoverFrom(dir string, from Position, fn func(payload []byte) error) (ReplayStats, error) {
	if fn == nil {
		fn = func([]byte) error { return nil }
	}
	stats, err := scan(dir, from, fn)
	if err != nil || !stats.Truncated {
		return stats, err
	}
	if err := os.Truncate(filepath.Join(dir, stats.Segment), stats.Offset); err != nil {
		return stats, fmt.Errorf("reportlog: truncate %s: %w", stats.Segment, err)
	}
	segs, err := Segments(dir)
	if err != nil {
		return stats, err
	}
	bad := seqOf(stats.Segment)
	for _, seg := range segs {
		if seqOf(seg) > bad {
			if err := os.Remove(filepath.Join(dir, seg)); err != nil {
				return stats, fmt.Errorf("reportlog: remove %s: %w", seg, err)
			}
		}
	}
	return stats, nil
}

// Recover is RecoverFrom the start of the log with no consumer: it
// truncates a torn tail and returns the stats of the intact prefix.
func Recover(dir string) (ReplayStats, error) { return RecoverFrom(dir, Position{}, nil) }

// scan streams the intact records at or after from to fn, stopping at
// the first torn or corrupt one.
func scan(dir string, from Position, fn func(payload []byte) error) (ReplayStats, error) {
	stats := ReplayStats{End: from}
	segs, err := Segments(dir)
	if err != nil {
		return stats, err
	}
	for len(segs) > 0 && seqOf(segs[0]) < from.Seq {
		segs = segs[1:]
	}
	switch {
	case from == (Position{}):
		// The Writer numbers segments from 1 and only Reclaim deletes
		// them: a log starting later lost its head to a checkpoint.
		if len(segs) > 0 && seqOf(segs[0]) != 1 {
			return stats, fmt.Errorf("reportlog: log starts at %s; the segments before it were reclaimed under a checkpoint", segs[0])
		}
	case len(segs) == 0 || seqOf(segs[0]) != from.Seq:
		return stats, fmt.Errorf("reportlog: segment %s of start position %v is missing", segName(from.Seq), from)
	}
	// One read window and one payload buffer serve the whole replay:
	// restart time is dominated by decode-and-fold, and this keeps the I/O
	// side at two large buffers instead of two allocations per record.
	br := bufio.NewReaderSize(nil, replayBufSize)
	var payload []byte
	for i, seg := range segs {
		var off int64
		if i == 0 {
			off = from.Off
		}
		ok, err := scanSegment(dir, seg, off, br, &payload, fn, &stats)
		if err != nil {
			return stats, err
		}
		if !ok {
			return stats, nil // truncated: stop at the bad tail
		}
	}
	return stats, nil
}

// scanSegment streams one segment's records from byte offset start. It
// returns false when it stopped at a torn or corrupt record.
func scanSegment(dir, seg string, start int64, br *bufio.Reader, payload *[]byte, fn func([]byte) error, stats *ReplayStats) (bool, error) {
	f, err := os.Open(filepath.Join(dir, seg))
	if err != nil {
		return false, fmt.Errorf("reportlog: open %s: %w", seg, err)
	}
	defer f.Close()
	if start > 0 {
		st, err := f.Stat()
		if err != nil {
			return false, fmt.Errorf("reportlog: stat %s: %w", seg, err)
		}
		if st.Size() < start {
			return false, fmt.Errorf("reportlog: segment %s holds %d bytes, start position is at %d", seg, st.Size(), start)
		}
		if _, err := f.Seek(start, io.SeekStart); err != nil {
			return false, fmt.Errorf("reportlog: seek %s: %w", seg, err)
		}
	}
	br.Reset(f)
	offset := start
	stats.End = Position{Seq: seqOf(seg), Off: offset}
	torn := func() (bool, error) {
		stats.Truncated, stats.Segment, stats.Offset = true, seg, offset
		return false, nil
	}
	var hdr [headerSize]byte
	for {
		_, err := io.ReadFull(br, hdr[:])
		if err == io.EOF {
			return true, nil
		}
		if err != nil { // torn header
			return torn()
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxRecordSize {
			return torn()
		}
		if int(length) > cap(*payload) {
			*payload = make([]byte, length)
		}
		p := (*payload)[:length]
		if _, err := io.ReadFull(br, p); err != nil { // torn payload
			return torn()
		}
		if crc32.ChecksumIEEE(p) != sum {
			return torn()
		}
		if err := fn(p); err != nil {
			return false, err
		}
		stats.Records++
		offset += int64(headerSize) + int64(length)
		stats.End.Off = offset
	}
}

// Reclaim deletes the segments wholly below pos — every segment with a
// sequence number under pos.Seq — once a durable checkpoint covers them,
// returning how many it removed. remove deletes one path (nil:
// os.Remove); a failure stops the sweep, and the segments left behind
// are harmless: RecoverFrom never opens segments below its start, and
// the next Reclaim retries them.
func Reclaim(dir string, pos Position, remove func(path string) error) (int, error) {
	if remove == nil {
		remove = os.Remove
	}
	segs, err := Segments(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, seg := range segs {
		if seqOf(seg) >= pos.Seq {
			break
		}
		if err := remove(filepath.Join(dir, seg)); err != nil {
			return n, fmt.Errorf("reportlog: reclaim %s: %w", seg, err)
		}
		n++
	}
	return n, nil
}
