package pipeline

import (
	"strings"
	"testing"
)

// TestRestoreStateMatchesSource restores an exported state into fresh
// pipelines of other shard counts and checks every estimate, then the
// same reports folded on top, stays bit-identical to the source.
func TestRestoreStateMatchesSource(t *testing.T) {
	src := statePipeline(t, 3)
	ingestStateReports(t, 41, 600, src)
	st := src.StateSnapshot()
	for _, shards := range []int{1, 4} {
		dst := statePipeline(t, shards)
		if err := dst.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if dst.N() != src.N() || dst.Watermark() != src.Watermark() {
			t.Fatalf("restored n=%d wm=%d, source n=%d wm=%d", dst.N(), dst.Watermark(), src.N(), src.Watermark())
		}
		for k, n := range src.TaskCounts() {
			if got := dst.TaskCounts()[k]; got != n {
				t.Fatalf("restored %v count %d, want %d", k, got, n)
			}
		}
		assertResultsIdentical(t, dst.View(), src.Snapshot())
		cont := statePipeline(t, 2)
		if err := cont.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		ingestStateReports(t, 42, 200, cont, dst)
		assertResultsIdentical(t, dst.View(), cont.Snapshot())
	}
	// The exported state is only read.
	if st.Total() != 600 {
		t.Fatalf("restore mutated the state: total %d", st.Total())
	}
}

func TestRestoreStateRejects(t *testing.T) {
	src := statePipeline(t, 2)
	ingestStateReports(t, 43, 50, src)
	st := src.StateSnapshot()

	used := statePipeline(t, 2)
	ingestStateReports(t, 44, 1, used)
	if err := used.RestoreState(st); err == nil || !strings.Contains(err.Error(), "already ingested") {
		t.Errorf("restore into a used pipeline: %v", err)
	}
	bad := st.Clone()
	bad.MeanSum = bad.MeanSum[:1]
	if err := statePipeline(t, 2).RestoreState(bad); err == nil {
		t.Error("restore accepted a state of the wrong shape")
	}
	withTrainer := st.Clone()
	withTrainer.Trainer = &TrainerState{}
	if err := statePipeline(t, 2).RestoreState(withTrainer); err == nil || !strings.Contains(err.Error(), "no gradient task") {
		t.Errorf("restore of trainer state without a gradient task: %v", err)
	}
	g := newGradientPipeline(t, 3, 4)
	if err := g.RestoreState(g.StateSnapshot()); err != nil {
		t.Fatalf("restore of a pristine trainer state: %v", err)
	}
	noTrainer := newGradientPipeline(t, 3, 4).StateSnapshot()
	noTrainer.Trainer = nil
	if err := newGradientPipeline(t, 3, 4).RestoreState(noTrainer); err == nil || !strings.Contains(err.Error(), "lacks") {
		t.Errorf("restore without the trainer state: %v", err)
	}
}

// TestTrainerRestoreMidRound snapshots a trainer with a partially filled
// round, restores it, and checks both trainers then follow the exact
// same trajectory: the open round's sum and count survive the restore.
func TestTrainerRestoreMidRound(t *testing.T) {
	src := newGradientPipeline(t, 3, 4)
	for i := 0; i < 6; i++ { // round 0 fills, round 1 holds 2 reports
		if err := src.Add(onesReport(t, src, src.Trainer().Model().Round)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Add(onesReport(t, src, 0)); err != nil { // stale
		t.Fatal(err)
	}
	st := src.StateSnapshot()
	if tr := st.Trainer; tr.Round != 1 || tr.Count != 2 || tr.Accepted != 6 || tr.Stale != 1 || tr.Sum[0] != 2 {
		t.Fatalf("exported trainer state %+v", *tr)
	}
	dst := newGradientPipeline(t, 3, 4)
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := dst.Trainer().Fill(); got != 2 {
		t.Fatalf("restored fill %d, want 2", got)
	}
	for i := 0; i < 6; i++ {
		for _, p := range []*Pipeline{src, dst} {
			if err := p.Add(onesReport(t, p, p.Trainer().Model().Round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := src.Trainer(), dst.Trainer()
	ma, mb := a.Model(), b.Model()
	if ma.Round != 3 || !ma.Done || mb.Round != ma.Round || mb.Done != ma.Done || a.Accepted() != b.Accepted() || a.Stale() != b.Stale() {
		t.Fatalf("trajectories diverged: src round %d done %v acc %d stale %d; restored round %d done %v acc %d stale %d",
			ma.Round, ma.Done, a.Accepted(), a.Stale(), mb.Round, mb.Done, b.Accepted(), b.Stale())
	}
	for j := range ma.Beta {
		if ma.Beta[j] != mb.Beta[j] || ma.Beta[j] != expectedBeta(3) {
			t.Fatalf("beta[%d]: src %v restored %v want %v", j, ma.Beta[j], mb.Beta[j], expectedBeta(3))
		}
	}

	// Inconsistent trainer states are refused.
	for name, mut := range map[string]func(*TrainerState){
		"count past group": func(tr *TrainerState) { tr.Count = 4; tr.Accepted = 8 },
		"accepted drift":   func(tr *TrainerState) { tr.Accepted++ },
		"round past end":   func(tr *TrainerState) { tr.Round = 4 },
		"done mid-run":     func(tr *TrainerState) { tr.Done = true },
		"short sum":        func(tr *TrainerState) { tr.Sum = tr.Sum[:1] },
	} {
		bad := st.Clone()
		mut(bad.Trainer)
		if err := newGradientPipeline(t, 3, 4).RestoreState(bad); err == nil {
			t.Errorf("%s: restore accepted %+v", name, *bad.Trainer)
		}
	}
}

func TestCheckpointFingerprintCoversTraining(t *testing.T) {
	cfg := GradientConfig{Dim: 3, Rounds: 2, GroupSize: 4, Eta: 1, Lambda: 1e-4}
	build := func(c GradientConfig) *Pipeline {
		p, err := New(testSchema(t), 4, WithGradient(c))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := build(cfg)
	if build(cfg).CheckpointFingerprint() != base.CheckpointFingerprint() {
		t.Fatal("checkpoint fingerprint is not deterministic")
	}
	more := cfg
	more.Rounds = 3
	if build(more).CheckpointFingerprint() == base.CheckpointFingerprint() {
		t.Error("SGD rounds do not change the checkpoint fingerprint")
	}
	plain, err := New(testSchema(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fingerprint() != base.Fingerprint() || plain.CheckpointFingerprint() == base.CheckpointFingerprint() {
		t.Error("gradient task should change the checkpoint fingerprint but not the fan-in one")
	}
}
