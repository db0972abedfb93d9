package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ldp/internal/pipeline"
)

// The unified envelope (version 2) multiplexes every task's payload
// through one frame format:
//
//	magic(4)="LDPR" version(1)=2 payloadLen(u32) payload crc32(u32)
//	payload = taskTag(1) taskBody
//
// Task bodies reuse the v1 payload encodings: mean/freq/joint bodies are
// entry lists (see appendEntries), range bodies are range-report payloads
// (see appendRangeReport), and gradient bodies carry a round tag plus a
// coordinate list (see appendGradient). The decoder rejects unknown versions and task
// tags, and still accepts both legacy v1 formats — a v1 "LDPR" frame
// decodes as a TaskJoint report and a v1 "LDPQ" frame as a TaskRange
// report — so report logs and in-flight clients survive the migration.
const (
	wireEnvelopeVersion = 2

	envTaskMean     = 1
	envTaskFreq     = 2
	envTaskRange    = 3
	envTaskJoint    = 4
	envTaskGradient = 5
)

// EncodeEnvelope serializes a unified report into the versioned,
// task-multiplexed wire envelope.
func EncodeEnvelope(rep pipeline.Report) ([]byte, error) {
	return AppendEnvelope(nil, rep)
}

// AppendEnvelope appends a report's wire envelope to dst and returns the
// extended buffer. When dst has capacity it allocates nothing, so a client
// can assemble a whole batch upload into one reused buffer.
func AppendEnvelope(dst []byte, rep pipeline.Report) ([]byte, error) {
	switch rep.Task {
	case pipeline.TaskMean, pipeline.TaskFreq, pipeline.TaskJoint, pipeline.TaskRange, pipeline.TaskGradient:
	default:
		return dst, fmt.Errorf("transport: cannot encode task %v", rep.Task)
	}
	start := len(dst)
	dst = append(dst, wireMagic...)
	dst = append(dst, wireEnvelopeVersion, 0, 0, 0, 0) // length backfilled below
	payloadStart := len(dst)
	switch rep.Task {
	case pipeline.TaskMean:
		dst = appendEntries(append(dst, envTaskMean), rep.Entries)
	case pipeline.TaskFreq:
		dst = appendEntries(append(dst, envTaskFreq), rep.Entries)
	case pipeline.TaskJoint:
		dst = appendEntries(append(dst, envTaskJoint), rep.Entries)
	case pipeline.TaskRange:
		dst = appendRangeReport(append(dst, envTaskRange), rep.Range)
	case pipeline.TaskGradient:
		dst = appendGradient(append(dst, envTaskGradient), rep.Round, rep.Entries)
	}
	binary.LittleEndian.PutUint32(dst[start+5:], uint32(len(dst)-payloadStart))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[payloadStart:])), nil
}

// DecodeEnvelope parses any report frame the system has ever produced into
// a unified report: v2 envelopes, legacy v1 report frames (as TaskJoint),
// and legacy v1 range frames (as TaskRange). Unknown magics, versions, and
// task tags are errors; malformed frames never panic.
//
// It is a materializing wrapper over the columnar batch decoder — one
// decode implementation serves both paths, so they cannot drift apart in
// what they accept.
func DecodeEnvelope(frame []byte) (pipeline.Report, error) {
	b := pipeline.GetBatch()
	defer pipeline.PutBatch(b)
	if err := decodeFrameInto(frame, b); err != nil {
		return pipeline.Report{}, err
	}
	return b.Report(0), nil
}

// FrameLen returns the total length of the frame starting at buf[0], from
// the envelope header alone. It errors when fewer than the 13 framing
// bytes are present or the header implies an oversized frame.
func FrameLen(buf []byte) (int, error) {
	if len(buf) < 13 {
		return 0, ErrTruncated
	}
	total := 13 + int(binary.LittleEndian.Uint32(buf[5:9]))
	if total > MaxFrameSize {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	return total, nil
}

// SplitFrames slices a buffer of concatenated report frames (the batch
// upload body) into individual frames without copying. An empty buffer
// yields no frames; a trailing partial frame is an error.
func SplitFrames(buf []byte) ([][]byte, error) {
	var frames [][]byte
	for len(buf) > 0 {
		n, err := FrameLen(buf)
		if err != nil {
			return nil, err
		}
		if n > len(buf) {
			return nil, ErrTruncated
		}
		frames = append(frames, buf[:n])
		buf = buf[n:]
	}
	return frames, nil
}

// replayBatchSize is the frame count at which the replayed columnar
// batch is flushed into the pipeline (records decode whole, so a chunk
// can pass it by one record's frames).
const replayBatchSize = 1024

// ReplayPipeline rebuilds pipeline state from persisted records, e.g. at
// server startup with reportlog.RecoverFrom. A record is one or more
// concatenated frames (any format DecodeEnvelope accepts): the pipeline
// server persists each request body as one record, older logs hold one
// frame per record, and both replay alike. Records are decoded into a
// pooled columnar batch and folded in chunks of at least replayBatchSize
// frames through Pipeline.AddBatch, so replaying a large log runs at
// batch-ingest speed. It returns the number of frames — reports —
// decoded; a record that fails to decode contributes none of its frames.
// On error, frames of the failing chunk may not have been folded.
func ReplayPipeline(p *pipeline.Pipeline, records func(fn func(record []byte) error) error) (int, error) {
	b := pipeline.GetBatch()
	defer pipeline.PutBatch(b)
	n := 0
	flush := func() error {
		if b.Len() == 0 {
			return nil
		}
		if err := p.AddBatch(b); err != nil {
			return fmt.Errorf("transport: replay frames %d..%d: %w", n-b.Len(), n-1, err)
		}
		b.Reset()
		return nil
	}
	err := records(func(record []byte) error {
		mark := b.Mark()
		k, err := DecodeBatch(record, b)
		if err != nil {
			b.Truncate(mark)
			return fmt.Errorf("transport: replay record at frame %d: %w", n, err)
		}
		n += k
		if b.Len() >= replayBatchSize {
			return flush()
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	return n, flush()
}
