package checkpoint

import (
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ldp/internal/pipeline"
	"ldp/internal/reportlog"
	"ldp/internal/telemetry"
	"ldp/internal/transport"
)

// FS is the filesystem surface a checkpoint write touches, one method per
// durability step, so a fault injector (internal/chaos) can fail each
// step on its own.
type FS interface {
	// WriteFile creates or truncates path and writes data to it.
	WriteFile(path string, data []byte) error
	// SyncFile fsyncs the file at path.
	SyncFile(path string) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// SyncDir fsyncs the directory dir, making renames and removals in
	// it durable.
	SyncDir(dir string) error
	// Remove deletes path.
	Remove(path string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

// WriteFile implements FS.
func (OSFS) WriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// SyncFile implements FS.
func (OSFS) SyncFile(path string) error { return fsync(path) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// SyncDir implements FS.
func (OSFS) SyncDir(dir string) error { return fsync(dir) }

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

func fsync(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Config configures a Checkpointer.
type Config struct {
	// Dir is the report log directory; the checkpoint lives inside it.
	Dir string
	// Server is the pipeline's front end, appending to WAL; checkpoints
	// cut through it (PipelineServer.Cut).
	Server *transport.PipelineServer
	WAL    *reportlog.Writer
	// FS performs the file operations (nil: OSFS).
	FS FS
	// From is what Recover restored at startup: the checkpoint the next
	// one supersedes.
	From Recovery
	// Registry, when set, registers the ldp_checkpoint_* metrics.
	Registry *telemetry.Registry
	// Logger, when set, logs checkpoint outcomes.
	Logger *slog.Logger
}

// Checkpointer cuts and writes checkpoints for one server. Checkpoint and
// Final serialize on an internal lock, so Run and a shutdown call cannot
// interleave their writes.
type Checkpointer struct {
	cfg Config
	fs  FS
	fp  uint64

	mu   sync.Mutex
	last reportlog.Position // position of the newest durable checkpoint
	buf  []byte             // encode buffer, reused across checkpoints

	// Scrape-time state of the newest durable checkpoint.
	lastAt  atomic.Int64 // unix nanoseconds it was written (or startup)
	covered atomic.Int64 // reports it holds
	size    atomic.Int64 // its file size

	met metrics
}

type metrics struct {
	duration  *telemetry.Histogram
	cut       *telemetry.Histogram
	failures  map[string]*telemetry.Counter
	skipMerge *telemetry.Counter
	skipSame  *telemetry.Counter
}

// Failure steps, the step label of ldp_checkpoint_failures_total.
const (
	stepSync     = "wal_sync"
	stepEncode   = "encode"
	stepWrite    = "write"
	stepFsync    = "fsync"
	stepRename   = "rename"
	stepDirFsync = "dir_fsync"
	stepReclaim  = "reclaim"
)

// New builds a Checkpointer.
func New(cfg Config) *Checkpointer {
	c := &Checkpointer{cfg: cfg, fs: cfg.FS, fp: cfg.Server.Pipeline().CheckpointFingerprint(), last: cfg.From.Pos}
	if c.fs == nil {
		c.fs = OSFS{}
	}
	if cfg.From.Loaded {
		c.lastAt.Store(cfg.From.Written.UnixNano())
		c.covered.Store(cfg.From.Restored)
		c.size.Store(int64(cfg.From.Bytes))
	} else {
		c.lastAt.Store(time.Now().UnixNano())
	}
	c.register(cfg.Registry)
	return c
}

func (c *Checkpointer) register(reg *telemetry.Registry) {
	c.met.failures = make(map[string]*telemetry.Counter)
	for _, step := range []string{stepSync, stepEncode, stepWrite, stepFsync, stepRename, stepDirFsync, stepReclaim} {
		c.met.failures[step] = reg.Counter("ldp_checkpoint_failures_total",
			"Checkpoint attempts that failed, by the step that failed (the previous checkpoint stays in force; a reclaim failure leaves dead segments for the next checkpoint to delete).",
			telemetry.L("step", step))
	}
	if reg == nil {
		return
	}
	c.met.duration = reg.Histogram("ldp_checkpoint_duration_ns",
		"Wall time of each successful checkpoint, cut through segment reclaim, in nanoseconds.")
	c.met.cut = reg.Histogram("ldp_checkpoint_cut_duration_ns",
		"Time report persistence is paused for a checkpoint's consistent cut, in nanoseconds.")
	const skipHelp = "Checkpoint attempts skipped, by reason: merged (this server folded /v1/merge state its report log does not hold) or unchanged (nothing appended since the last checkpoint)."
	c.met.skipMerge = reg.Counter("ldp_checkpoint_skipped_total", skipHelp, telemetry.L("reason", "merged"))
	c.met.skipSame = reg.Counter("ldp_checkpoint_skipped_total", skipHelp, telemetry.L("reason", "unchanged"))
	reg.GaugeFunc("ldp_checkpoint_age_seconds",
		"Seconds since the newest durable checkpoint was written (since startup while there is none).",
		func() float64 { return time.Since(time.Unix(0, c.lastAt.Load())).Seconds() })
	reg.GaugeFunc("ldp_checkpoint_reports",
		"Reports covered by the newest durable checkpoint.",
		func() float64 { return float64(c.covered.Load()) })
	reg.GaugeFunc("ldp_checkpoint_bytes",
		"Size of the newest durable checkpoint file in bytes.",
		func() float64 { return float64(c.size.Load()) })
	restored, replayed := c.cfg.From.Restored, c.cfg.From.Replayed
	reg.GaugeFunc("ldp_checkpoint_restored_reports",
		"Reports restored from the checkpoint at startup.",
		func() float64 { return float64(restored) })
	reg.GaugeFunc("ldp_wal_replayed_records",
		"Reports (frames, not log records) replayed from the report log at startup on top of the restored checkpoint.",
		func() float64 { return float64(replayed) })
}

// Last returns the log position of the newest durable checkpoint.
func (c *Checkpointer) Last() reportlog.Position {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Checkpoint cuts the state at the current log position and writes it
// durably, then reclaims the segments below it. It reports whether a new
// checkpoint became durable; it skips (false, nil) when nothing was
// appended since the last one and when the server has merged fan-in
// state, which its log cannot account for. An error means the previous
// checkpoint is still the one a restart loads — except a reclaim error,
// which comes with true: the checkpoint is durable and the next one
// retries the delete.
func (c *Checkpointer) Checkpoint() (bool, error) { return c.checkpoint(true) }

// Final is Checkpoint for after the report log's final commit at clean
// shutdown: the log is closed, so there is nothing left to sync, and the
// checkpoint lands exactly at its end — the next start replays nothing.
func (c *Checkpointer) Final() (bool, error) { return c.checkpoint(false) }

func (c *Checkpointer) checkpoint(syncWAL bool) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	var (
		pos    reportlog.Position
		st     *pipeline.AggState
		merged bool
	)
	c.cfg.Server.Cut(func() {
		if merged = c.cfg.Server.Merged(); merged {
			return
		}
		if pos = c.cfg.WAL.Position(); pos == c.last {
			return
		}
		st = c.cfg.Server.Pipeline().StateSnapshot()
		// A merge racing the snapshot raised the flag before folding; a
		// second read after the export catches it (see Merged).
		merged = c.cfg.Server.Merged()
	})
	c.met.cut.ObserveSince(start)
	switch {
	case merged:
		c.met.skipMerge.Inc()
		return false, nil
	case st == nil:
		c.met.skipSame.Inc()
		return false, nil
	}
	if syncWAL {
		if err := c.cfg.WAL.Sync(); err != nil {
			return false, c.fail(stepSync, err)
		}
	}
	buf, err := AppendEncode(c.buf[:0], pos, c.fp, st)
	if err != nil {
		return false, c.fail(stepEncode, err)
	}
	c.buf = buf
	path := filepath.Join(c.cfg.Dir, FileName)
	tmp := path + ".tmp"
	if err := c.fs.WriteFile(tmp, buf); err != nil {
		return false, c.fail(stepWrite, err)
	}
	if err := c.fs.SyncFile(tmp); err != nil {
		return false, c.fail(stepFsync, err)
	}
	if err := c.fs.Rename(tmp, path); err != nil {
		return false, c.fail(stepRename, err)
	}
	// Until the directory is synced the rename may not survive a power
	// loss, so the segments the previous checkpoint needs stay.
	if err := c.fs.SyncDir(c.cfg.Dir); err != nil {
		return false, c.fail(stepDirFsync, err)
	}
	c.last = pos
	covered := st.Total()
	if st.Trainer != nil {
		covered += st.Trainer.Accepted
	}
	c.lastAt.Store(time.Now().UnixNano())
	c.covered.Store(covered)
	c.size.Store(int64(len(buf)))
	reclaimed, err := reportlog.Reclaim(c.cfg.Dir, pos, c.fs.Remove)
	c.met.duration.ObserveSince(start)
	if err != nil {
		return true, c.fail(stepReclaim, err)
	}
	if c.cfg.Logger != nil {
		c.cfg.Logger.Debug("checkpoint written", "position", pos.String(), "reports", covered,
			"bytes", len(buf), "reclaimed_segments", reclaimed, "elapsed", time.Since(start))
	}
	return true, nil
}

func (c *Checkpointer) fail(step string, err error) error {
	c.met.failures[step].Inc()
	if c.cfg.Logger != nil {
		c.cfg.Logger.Warn("checkpoint step failed", "step", step, "err", err)
	}
	return err
}

// Run cuts a checkpoint each time a signal arrives on rotated — wired to
// reportlog.WithRotateSignal, once per segment of log growth — until ctx
// is done.
func (c *Checkpointer) Run(ctx context.Context, rotated <-chan struct{}) {
	loggedMerge := false
	for {
		select {
		case <-ctx.Done():
			return
		case <-rotated:
			// Failures are counted and logged inside; the next rotation
			// retries.
			wrote, err := c.Checkpoint()
			if !wrote && err == nil && !loggedMerge && c.cfg.Server.Merged() && c.cfg.Logger != nil {
				loggedMerge = true
				c.cfg.Logger.Info("checkpointing stopped: this server has merged fan-in state its report log does not hold; a restart resumes from the last checkpoint before the merge")
			}
		}
	}
}
