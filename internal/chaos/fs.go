package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// FS matches checkpoint.FS without importing it (the interfaces are
// structurally identical, so a FaultyFS satisfies both).
type FS interface {
	WriteFile(path string, data []byte) error
	SyncFile(path string) error
	Rename(oldpath, newpath string) error
	SyncDir(dir string) error
	Remove(path string) error
}

// FSStep names one durability step of a checkpoint write.
type FSStep int

const (
	// StepWrite is the temporary file's write; an injected fault tears it
	// (half the data lands, then the call fails).
	StepWrite FSStep = iota
	// StepFsync is the temporary file's fsync.
	StepFsync
	// StepRename is the rename over the checkpoint.
	StepRename
	// StepDirFsync is the directory fsync that makes the rename durable.
	StepDirFsync
	// StepRemove is the deletion of a reclaimed log segment.
	StepRemove
)

// FSSteps lists every step in write order.
var FSSteps = []FSStep{StepWrite, StepFsync, StepRename, StepDirFsync, StepRemove}

func (s FSStep) String() string {
	switch s {
	case StepWrite:
		return "write"
	case StepFsync:
		return "fsync"
	case StepRename:
		return "rename"
	case StepDirFsync:
		return "dir_fsync"
	case StepRemove:
		return "remove"
	default:
		return "unknown"
	}
}

// FaultyFS wraps a filesystem and fails chosen durability steps on an
// explicit schedule: Arm(step, n) makes the next n calls of step fail
// (before touching the base filesystem, except a write, which is torn
// halfway). Unarmed calls pass through, so a test can fail exactly one
// step of one checkpoint and then assert that the state a restart
// recovers is still exact.
type FaultyFS struct {
	base FS

	mu    sync.Mutex
	armed [StepRemove + 1]int

	failures atomic.Uint64
}

// NewFaultyFS wraps base.
func NewFaultyFS(base FS) *FaultyFS { return &FaultyFS{base: base} }

// Arm makes the next n calls of step fail.
func (f *FaultyFS) Arm(step FSStep, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed[step] = n
}

// Failures returns how many calls were failed.
func (f *FaultyFS) Failures() uint64 { return f.failures.Load() }

// fault consumes one armed failure of step, if any.
func (f *FaultyFS) fault(step FSStep, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.armed[step] == 0 {
		return nil
	}
	f.armed[step]--
	f.failures.Add(1)
	return fmt.Errorf("chaos: injected %s fault on %s", step, path)
}

// WriteFile implements FS.
func (f *FaultyFS) WriteFile(path string, data []byte) error {
	if err := f.fault(StepWrite, path); err != nil {
		if werr := f.base.WriteFile(path, data[:len(data)/2]); werr != nil {
			return werr
		}
		return err
	}
	return f.base.WriteFile(path, data)
}

// SyncFile implements FS.
func (f *FaultyFS) SyncFile(path string) error {
	if err := f.fault(StepFsync, path); err != nil {
		return err
	}
	return f.base.SyncFile(path)
}

// Rename implements FS.
func (f *FaultyFS) Rename(oldpath, newpath string) error {
	if err := f.fault(StepRename, oldpath); err != nil {
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

// SyncDir implements FS.
func (f *FaultyFS) SyncDir(dir string) error {
	if err := f.fault(StepDirFsync, dir); err != nil {
		return err
	}
	return f.base.SyncDir(dir)
}

// Remove implements FS.
func (f *FaultyFS) Remove(path string) error {
	if err := f.fault(StepRemove, path); err != nil {
		return err
	}
	return f.base.Remove(path)
}
