// Package checkpoint bounds an aggregator's restart time and disk use.
// The aggregate state the paper's estimators need — sums, support counts
// and reporter counts — is sized by the schema, not by how many users
// have reported, so instead of re-decoding and re-folding every report
// the report log holds, a restart loads the state as of a log position P
// and replays only the log from P.
//
// A checkpoint is one file inside the report log directory, FileName,
// written with the classic durable-replace sequence off the ingest path:
//
//  1. a consistent cut: with report persistence paused and every
//     persisted batch folded, read the log position P and export the
//     pipeline state (transport.PipelineServer.Cut);
//  2. sync the report log, which commits at least through P;
//  3. write the encoded checkpoint to a temporary file;
//  4. fsync it;
//  5. rename it over FileName;
//  6. fsync the directory;
//  7. delete the log segments wholly below P (reportlog.Reclaim).
//
// A failure at any step leaves the previous checkpoint and every segment
// it needs in place, so the state a restart recovers never depends on
// how far a checkpoint got. Recover is the restart half: load the
// checkpoint (refusing one cut under a different configuration), then
// recover and replay the log tail from P in one pass.
//
// File layout (little endian):
//
//	magic "LDPK" | version u8 | P.Seq u64 | P.Off u64 | frameLen u32 | frame | crc32 u32
//
// The frame is the state encoded with the cluster snapshot codec, its
// fingerprint set to pipeline.CheckpointFingerprint; the trailing CRC
// covers everything before it. The version byte is the checkpoint's own,
// so later fields (a client dedup window) can join without touching the
// cluster wire format.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"

	"ldp/internal/cluster"
	"ldp/internal/pipeline"
	"ldp/internal/reportlog"
	"ldp/internal/transport"
)

// FileName is the checkpoint's name inside the report log directory; the
// write goes through FileName+".tmp".
const FileName = "checkpoint.ldp"

const (
	magic      = "LDPK"
	version    = 1
	headerSize = 4 + 1 + 8 + 8 + 4
	// snapEdge fills the cluster frame's edge field, which the codec
	// requires to be non-empty.
	snapEdge = "checkpoint"
)

// ErrCorrupt reports a checkpoint file that fails its structural or
// checksum checks.
var ErrCorrupt = errors.New("checkpoint: corrupt file")

// AppendEncode appends the checkpoint encoding of st at log position pos
// to dst, fingerprinted with fp. Reusing dst across calls makes the
// steady-state encode allocation-free.
func AppendEncode(dst []byte, pos reportlog.Position, fp uint64, st *pipeline.AggState) ([]byte, error) {
	if pos.Seq < 0 || pos.Off < 0 {
		return nil, fmt.Errorf("checkpoint: negative position %v", pos)
	}
	base := len(dst)
	dst = append(dst, magic...)
	dst = append(dst, version)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(pos.Seq))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(pos.Off))
	dst = append(dst, 0, 0, 0, 0) // frame length, backfilled below
	frameStart := len(dst)
	dst, err := cluster.AppendSnapshot(dst, &cluster.Snapshot{Fingerprint: fp, Edge: snapEdge, State: st})
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(dst[frameStart-4:frameStart], uint32(len(dst)-frameStart))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[base:])), nil
}

// Decode parses a checkpoint file's contents into its log position and
// state snapshot. It checks structure and checksums, not the
// fingerprint: that is Recover's job, which knows the pipeline.
func Decode(data []byte) (reportlog.Position, *cluster.Snapshot, error) {
	var pos reportlog.Position
	if len(data) < headerSize+4 || string(data[:4]) != magic {
		return pos, nil, ErrCorrupt
	}
	if data[4] != version {
		return pos, nil, fmt.Errorf("checkpoint: unsupported version %d", data[4])
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return pos, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	seq := binary.LittleEndian.Uint64(data[5:13])
	off := binary.LittleEndian.Uint64(data[13:21])
	flen := binary.LittleEndian.Uint32(data[21:25])
	if seq > math.MaxInt32 || off > math.MaxInt64 || int64(flen) != int64(len(body)-headerSize) {
		return pos, nil, ErrCorrupt
	}
	snap, err := cluster.DecodeSnapshot(body[headerSize:])
	if err != nil {
		return pos, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return reportlog.Position{Seq: int(seq), Off: int64(off)}, snap, nil
}

// Recovery describes what a restart recovered.
type Recovery struct {
	// Loaded is true when a checkpoint was restored.
	Loaded bool
	// Pos is the restored checkpoint's log position (zero without one).
	Pos reportlog.Position
	// Restored counts the reports the checkpoint held.
	Restored int64
	// Bytes is the checkpoint file's size.
	Bytes int
	// Written is the checkpoint file's modification time.
	Written time.Time
	// Replayed counts the report frames replayed after Pos — reports, not
	// log records: a record holds a whole request body.
	Replayed int
	// Log is the log recovery's stats; Log.End is where appends resume.
	Log reportlog.ReplayStats
}

// Recover rebuilds p, which must be freshly built, from the report log
// directory dir: it restores the checkpoint if there is one, then
// recovers the log from the checkpoint's position in one pass —
// replaying every intact record after it into p and truncating a torn
// tail. A checkpoint cut under a different configuration
// (CheckpointFingerprint) or failing its checksums is an error naming
// the file, never a silent fall-back: the segments it covers may already
// be gone. So is a log whose first segments were reclaimed while no
// checkpoint covers them (see reportlog.RecoverFrom).
func Recover(dir string, p *pipeline.Pipeline) (Recovery, error) {
	var rec Recovery
	path := filepath.Join(dir, FileName)
	// A temporary left by a checkpoint that failed mid-write is garbage:
	// the rename never happened, so FileName is still the previous one.
	if err := os.Remove(path + ".tmp"); err != nil && !errors.Is(err, os.ErrNotExist) {
		return rec, fmt.Errorf("checkpoint: remove stale %s.tmp: %w", path, err)
	}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// No checkpoint: replay the whole log (RecoverFrom refuses one
		// whose head was reclaimed).
	case err != nil:
		return rec, fmt.Errorf("checkpoint: read %s: %w", path, err)
	default:
		pos, snap, err := Decode(data)
		if err != nil {
			return rec, fmt.Errorf("checkpoint %s: %w", path, err)
		}
		if want := p.CheckpointFingerprint(); snap.Fingerprint != want {
			return rec, fmt.Errorf("checkpoint %s was cut under a different configuration (fingerprint %016x, this server %016x): restart with the flags it was written under, or move the report log aside", path, snap.Fingerprint, want)
		}
		if err := p.RestoreState(snap.State); err != nil {
			return rec, fmt.Errorf("checkpoint %s: %w", path, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return rec, err
		}
		rec.Loaded, rec.Pos, rec.Restored, rec.Bytes, rec.Written = true, pos, p.N(), len(data), fi.ModTime()
	}
	rec.Replayed, err = transport.ReplayPipeline(p, func(fn func([]byte) error) error {
		var err error
		rec.Log, err = reportlog.RecoverFrom(dir, rec.Pos, fn)
		return err
	})
	if err != nil {
		return rec, fmt.Errorf("recover report log: %w", err)
	}
	return rec, nil
}
