// Package cluster is the multi-node fan-in tier of the aggregation
// pipeline: it lifts the in-process additivity of pipeline.AggState onto
// the wire so a fleet of edge collectors can periodically fold into a
// root aggregator.
//
// The package defines three pieces:
//
//   - A versioned, CRC-framed shard-snapshot wire format (Snapshot,
//     AppendSnapshot, DecodeSnapshotInto): a columnar dump of a
//     pipeline's support counts, reporter counts, numeric sums, range
//     accumulators, and (for checkpoints and inspection) trainer state, headed by
//     the exporting pipeline's config fingerprint plus an (edge, seq,
//     boot) delivery header. Mismatched topologies are rejected at the
//     boundary by the fingerprint; retried deliveries are deduplicated
//     by the per-edge monotone sequence number.
//
//   - RetryPolicy, a bounded exponential-backoff-with-jitter helper
//     shared by the edge forwarder and the transport clients.
//
//   - Forwarder, the edge side of the tier: it snapshots the local
//     pipeline on an interval, ships the delta since the last
//     acknowledged push, and resets cleanly when the root restarts (see
//     forwarder.go for the exactness protocol).
//
// Estimates stay exact under fan-in because every aggregate the wire
// format carries is additive: the root's state after merging N edge
// deltas is elementwise equal to the state of a single pipeline that
// ingested every underlying report.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
)

// Wire format constants. The envelope matches the report wire format
// (magic(4) version(1) payloadLen(u32) payload crc32(u32)) with its own
// magic, so a snapshot accidentally posted to /v1/report is rejected by
// magic, not misparsed.
const (
	snapMagic   = "LDPS"
	snapVersion = 1

	// MaxSnapshotSize bounds one snapshot frame. State size scales with
	// schema width and estimator geometry, not report volume, so even
	// generous configurations stay far below this.
	MaxSnapshotSize = 64 << 20

	// MaxEdgeIDLen bounds the edge identifier carried in the header.
	MaxEdgeIDLen = 128
	// maxBootLen bounds the root boot ID echoed in the header.
	maxBootLen = 64

	maxDim    = 1 << 16
	maxDomain = 1 << 24
	maxLists  = 1 << 20
)

// Errors returned by the snapshot decoder.
var (
	ErrBadMagic    = errors.New("cluster: bad snapshot magic")
	ErrBadVersion  = errors.New("cluster: unsupported snapshot version")
	ErrBadChecksum = errors.New("cluster: snapshot checksum mismatch")
	ErrTruncated   = errors.New("cluster: truncated snapshot")
)

// Snapshot is one shipment of aggregate state: the delta (or cumulative
// state) an edge pushes to the root, or the per-edge applied state a root
// returns for resynchronization.
type Snapshot struct {
	// Fingerprint is pipeline.Fingerprint() of the exporting pipeline;
	// receivers reject snapshots whose fingerprint does not match their
	// own configuration.
	Fingerprint uint64
	// Edge identifies the pushing edge node; (Edge, Seq) deduplicates
	// retried deliveries.
	Edge string
	// Seq is the edge's monotone push sequence number.
	Seq uint64
	// Boot is the root boot ID this delta is based on: the edge learned
	// it (and its acked baseline) from the root, and the root rejects
	// pushes carrying a stale or missing boot so a delta computed against
	// a dead root's state can never double-fold.
	Boot string
	// State is the columnar aggregate payload.
	State *pipeline.AggState
}

// Flag bits of the payload's section mask.
const (
	flagFreq = 1 << iota
	flagJoint
	flagRange
	flagTrainer
	// flagTrainerRound follows the trainer section with the open round's
	// accumulator (count, then the gradient sum), which a checkpoint
	// needs to resume training mid-round.
	flagTrainerRound
)

// EncodeSnapshot serializes a snapshot into a self-contained frame.
func EncodeSnapshot(s *Snapshot) ([]byte, error) { return AppendSnapshot(nil, s) }

// AppendSnapshot appends the frame encoding of s to dst and returns the
// extended slice. Reusing dst across calls makes the steady-state encode
// allocation-free.
func AppendSnapshot(dst []byte, s *Snapshot) ([]byte, error) {
	st := s.State
	if st == nil {
		return nil, fmt.Errorf("cluster: snapshot without state")
	}
	if len(s.Edge) == 0 || len(s.Edge) > MaxEdgeIDLen {
		return nil, fmt.Errorf("cluster: edge ID length %d outside [1,%d]", len(s.Edge), MaxEdgeIDLen)
	}
	if len(s.Boot) > maxBootLen {
		return nil, fmt.Errorf("cluster: boot ID longer than %d bytes", maxBootLen)
	}
	if len(st.MeanSum) != len(st.JointSum) {
		return nil, fmt.Errorf("cluster: malformed state (mean/joint dimension mismatch)")
	}
	if len(st.MeanSum) > maxDim {
		return nil, fmt.Errorf("cluster: state dimension %d exceeds limit", len(st.MeanSum))
	}

	base := len(dst)
	dst = append(dst, snapMagic...)
	dst = append(dst, snapVersion)
	dst = append(dst, 0, 0, 0, 0) // payload length backfilled below
	payloadStart := len(dst)

	dst = binary.LittleEndian.AppendUint64(dst, s.Fingerprint)
	dst = binary.LittleEndian.AppendUint64(dst, s.Seq)
	dst = append(dst, byte(len(s.Edge)))
	dst = append(dst, s.Edge...)
	dst = append(dst, byte(len(s.Boot)))
	dst = append(dst, s.Boot...)

	var flags byte
	if st.FreqCounts != nil {
		flags |= flagFreq
	}
	if st.JointCounts != nil {
		flags |= flagJoint
	}
	if st.Range != nil {
		flags |= flagRange
	}
	if st.Trainer != nil {
		flags |= flagTrainer
		if st.Trainer.Sum != nil {
			flags |= flagTrainerRound
		}
	}
	dst = append(dst, flags)

	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.NMean))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.NFreq))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.NJoint))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.NRange))

	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.MeanSum)))
	dst = appendFloats(dst, st.MeanSum)
	dst = appendFloats(dst, st.JointSum)

	var err error
	if st.FreqCounts != nil {
		if dst, err = appendCountColumns(dst, len(st.MeanSum), st.FreqCounts, st.FreqN); err != nil {
			return nil, err
		}
	}
	if st.JointCounts != nil {
		if dst, err = appendCountColumns(dst, len(st.MeanSum), st.JointCounts, st.JointN); err != nil {
			return nil, err
		}
	}
	if st.Range != nil {
		if dst, err = appendRangeState(dst, st.Range); err != nil {
			return nil, err
		}
	}
	if st.Trainer != nil {
		tr := st.Trainer
		if len(tr.Beta) > maxDomain {
			return nil, fmt.Errorf("cluster: trainer model dimension %d exceeds limit", len(tr.Beta))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(tr.Round)))
		done := byte(0)
		if tr.Done {
			done = 1
		}
		dst = append(dst, done)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(tr.Accepted))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(tr.Stale))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tr.Beta)))
		dst = appendFloats(dst, tr.Beta)
		if tr.Sum != nil {
			if len(tr.Sum) > maxDomain || tr.Count < 0 || int64(tr.Count) > math.MaxInt32 {
				return nil, fmt.Errorf("cluster: malformed trainer round (%d sums, count %d)", len(tr.Sum), tr.Count)
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(tr.Count))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tr.Sum)))
			dst = appendFloats(dst, tr.Sum)
		}
	}

	payload := dst[payloadStart:]
	if len(payload) > MaxSnapshotSize {
		return nil, fmt.Errorf("cluster: snapshot of %d bytes exceeds limit %d", len(payload), MaxSnapshotSize)
	}
	binary.LittleEndian.PutUint32(dst[base+5:base+9], uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return dst, nil
}

func appendFloats(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func appendCountColumns(dst []byte, d int, counts [][]float64, ns []int64) ([]byte, error) {
	if len(counts) != d || len(ns) != d {
		return nil, fmt.Errorf("cluster: malformed state (count columns cover %d attributes, want %d)", len(counts), d)
	}
	for j := 0; j < d; j++ {
		if len(counts[j]) > maxDomain {
			return nil, fmt.Errorf("cluster: count domain %d exceeds limit", len(counts[j]))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(counts[j])))
		if counts[j] != nil {
			dst = appendFloats(dst, counts[j])
			dst = binary.LittleEndian.AppendUint64(dst, uint64(ns[j]))
		}
	}
	return dst, nil
}

func appendRangeState(dst []byte, st *rangequery.AccState) ([]byte, error) {
	if len(st.Levels) > maxLists || len(st.Grids) > maxLists {
		return nil, fmt.Errorf("cluster: range state with %d levels / %d grids exceeds limit", len(st.Levels), len(st.Grids))
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.N))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.Levels)))
	for i := range st.Levels {
		var err error
		if dst, err = appendCountState(dst, &st.Levels[i]); err != nil {
			return nil, err
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.Grids)))
	for i := range st.Grids {
		var err error
		if dst, err = appendCountState(dst, &st.Grids[i]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func appendCountState(dst []byte, c *rangequery.CountState) ([]byte, error) {
	if len(c.Counts) > maxDomain {
		return nil, fmt.Errorf("cluster: count domain %d exceeds limit", len(c.Counts))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Counts)))
	dst = appendFloats(dst, c.Counts)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.N))
	return dst, nil
}

// snapReader is a bounds-checked cursor over the snapshot payload. Its
// error values are preallocated so the decode hot path allocates nothing.
type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) remaining() int { return len(r.b) - r.off }

func (r *snapReader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, ErrTruncated
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *snapReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *snapReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// count reads a non-negative int64 counter.
func (r *snapReader) count() (int64, error) {
	v, err := r.u64()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("cluster: counter overflows int64")
	}
	return int64(v), nil
}

// str reads a length-prefixed byte string, reusing prev when the content
// is unchanged so a steady-state decode allocates nothing.
func (r *snapReader) str(maxLen int, prev string) (string, error) {
	n, err := r.u8()
	if err != nil {
		return "", err
	}
	if int(n) > maxLen || r.remaining() < int(n) {
		return "", ErrTruncated
	}
	raw := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	if string(raw) == prev { // comparison does not allocate
		return prev, nil
	}
	return string(raw), nil
}

// floats reads n float64s into a slice recycled from prev.
func (r *snapReader) floats(n int, prev []float64) ([]float64, error) {
	if n > maxDomain {
		return nil, fmt.Errorf("cluster: float vector of %d entries exceeds limit", n)
	}
	if r.remaining() < 8*n {
		return nil, ErrTruncated
	}
	out := prev
	if cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out, nil
}

// DecodeSnapshot decodes a snapshot frame into a fresh Snapshot.
func DecodeSnapshot(frame []byte) (*Snapshot, error) {
	s := &Snapshot{}
	if err := DecodeSnapshotInto(frame, s); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeSnapshotInto decodes a snapshot frame, recycling s's existing
// buffers when shapes match (the steady state for a root decoding a
// fixed fleet's pushes), so repeated decodes allocate nothing. The decode
// validates structure — envelope, checksum, bounds, counter signs — but
// not semantics; receivers validate the state against their own pipeline
// configuration via Pipeline.MergeState.
func DecodeSnapshotInto(frame []byte, s *Snapshot) error {
	if len(frame) > MaxSnapshotSize+13 {
		return fmt.Errorf("cluster: snapshot frame of %d bytes exceeds limit", len(frame))
	}
	if len(frame) < 13 {
		return ErrTruncated
	}
	if string(frame[:4]) != snapMagic {
		return ErrBadMagic
	}
	if frame[4] != snapVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, frame[4])
	}
	plen := binary.LittleEndian.Uint32(frame[5:9])
	if int64(plen) != int64(len(frame))-13 {
		return ErrTruncated
	}
	payload := frame[9 : 9+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[9+plen:]) {
		return ErrBadChecksum
	}

	r := &snapReader{b: payload}
	var err error
	if s.Fingerprint, err = r.u64(); err != nil {
		return err
	}
	if s.Seq, err = r.u64(); err != nil {
		return err
	}
	if s.Edge, err = r.str(MaxEdgeIDLen, s.Edge); err != nil {
		return err
	}
	if len(s.Edge) == 0 {
		return fmt.Errorf("cluster: snapshot without an edge ID")
	}
	if s.Boot, err = r.str(maxBootLen, s.Boot); err != nil {
		return err
	}
	flags, err := r.u8()
	if err != nil {
		return err
	}

	if s.State == nil {
		s.State = &pipeline.AggState{}
	}
	st := s.State
	if st.NMean, err = r.count(); err != nil {
		return err
	}
	if st.NFreq, err = r.count(); err != nil {
		return err
	}
	if st.NJoint, err = r.count(); err != nil {
		return err
	}
	if st.NRange, err = r.count(); err != nil {
		return err
	}
	d32, err := r.u32()
	if err != nil {
		return err
	}
	if d32 > maxDim {
		return fmt.Errorf("cluster: snapshot dimension %d exceeds limit", d32)
	}
	d := int(d32)
	if st.MeanSum, err = r.floats(d, st.MeanSum); err != nil {
		return err
	}
	if st.JointSum, err = r.floats(d, st.JointSum); err != nil {
		return err
	}

	if flags&flagFreq != 0 {
		if st.FreqCounts, st.FreqN, err = r.countColumns(d, st.FreqCounts, st.FreqN); err != nil {
			return err
		}
	} else {
		st.FreqCounts, st.FreqN = nil, nil
	}
	if flags&flagJoint != 0 {
		if st.JointCounts, st.JointN, err = r.countColumns(d, st.JointCounts, st.JointN); err != nil {
			return err
		}
	} else {
		st.JointCounts, st.JointN = nil, nil
	}

	if flags&flagRange != 0 {
		if st.Range == nil {
			st.Range = &rangequery.AccState{}
		}
		if err = r.rangeState(st.Range); err != nil {
			return err
		}
	} else {
		st.Range = nil
	}

	if flags&flagTrainer != 0 {
		if st.Trainer == nil {
			st.Trainer = &pipeline.TrainerState{}
		}
		tr := st.Trainer
		round, err := r.u32()
		if err != nil {
			return err
		}
		tr.Round = int(int32(round))
		done, err := r.u8()
		if err != nil {
			return err
		}
		tr.Done = done != 0
		if tr.Accepted, err = r.count(); err != nil {
			return err
		}
		if tr.Stale, err = r.count(); err != nil {
			return err
		}
		blen, err := r.u32()
		if err != nil {
			return err
		}
		if tr.Beta, err = r.floats(int(blen), tr.Beta); err != nil {
			return err
		}
		tr.Sum, tr.Count = nil, 0
		if flags&flagTrainerRound != 0 {
			count, err := r.u32()
			if err != nil {
				return err
			}
			if count > math.MaxInt32 {
				return fmt.Errorf("cluster: trainer round count %d exceeds limit", count)
			}
			tr.Count = int(count)
			slen, err := r.u32()
			if err != nil {
				return err
			}
			if tr.Sum, err = r.floats(int(slen), nil); err != nil {
				return err
			}
		}
	} else {
		st.Trainer = nil
	}

	if r.remaining() != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after snapshot payload", r.remaining())
	}
	return nil
}

func (r *snapReader) countColumns(d int, prevCounts [][]float64, prevNs []int64) ([][]float64, []int64, error) {
	counts := prevCounts
	if cap(counts) >= d {
		counts = counts[:d]
	} else {
		counts = make([][]float64, d)
	}
	ns := prevNs
	if cap(ns) >= d {
		ns = ns[:d]
	} else {
		ns = make([]int64, d)
	}
	for j := 0; j < d; j++ {
		card, err := r.u32()
		if err != nil {
			return nil, nil, err
		}
		if card == 0 {
			counts[j], ns[j] = nil, 0
			continue
		}
		if card > maxDomain {
			return nil, nil, fmt.Errorf("cluster: count domain %d exceeds limit", card)
		}
		if counts[j], err = r.floats(int(card), counts[j]); err != nil {
			return nil, nil, err
		}
		if ns[j], err = r.count(); err != nil {
			return nil, nil, err
		}
	}
	return counts, ns, nil
}

func (r *snapReader) rangeState(st *rangequery.AccState) error {
	var err error
	if st.N, err = r.count(); err != nil {
		return err
	}
	if st.Levels, err = r.countStates(st.Levels); err != nil {
		return err
	}
	if st.Grids, err = r.countStates(st.Grids); err != nil {
		return err
	}
	return nil
}

func (r *snapReader) countStates(prev []rangequery.CountState) ([]rangequery.CountState, error) {
	n32, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n32 > maxLists {
		return nil, fmt.Errorf("cluster: %d count lists exceed limit", n32)
	}
	n := int(n32)
	out := prev
	if cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]rangequery.CountState, n)
	}
	for i := 0; i < n; i++ {
		domain, err := r.u32()
		if err != nil {
			return nil, err
		}
		if domain > maxDomain {
			return nil, fmt.Errorf("cluster: count domain %d exceeds limit", domain)
		}
		if out[i].Counts, err = r.floats(int(domain), out[i].Counts); err != nil {
			return nil, err
		}
		if out[i].N, err = r.count(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
