package transport

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"ldp/internal/cluster"
	"ldp/internal/pipeline"
)

// maxMergeEdges bounds the per-edge bookkeeping a root retains, so a
// misconfigured (or hostile) fleet spraying fresh edge IDs cannot pin
// memory: pushes from edges past the cap are refused until the root
// restarts.
const maxMergeEdges = 4096

// mergeState is the root side of the fan-in protocol: the boot ID that
// scopes every sequence number, and per-edge dedup state. All of it is
// guarded by one mutex — merges arrive on push intervals, not per
// report, so serializing them costs nothing and keeps the
// (seq check, fold, record) triple atomic.
type mergeState struct {
	mu    sync.Mutex
	boot  string
	bootH []string // preallocated Ldp-Boot header value
	fp    uint64
	edges map[string]*edgeRecord
}

// edgeRecord tracks one edge: the highest applied sequence number and
// the cumulative state folded in under it, returned on resync so a
// restarted edge recovers its baseline instead of re-pushing everything.
type edgeRecord struct {
	seq     uint64
	applied *pipeline.AggState
}

// newBootID draws a random identifier for this server's lifetime.
// Sequence numbers are only meaningful within one boot: after a restart
// the root's aggregate is empty, so deltas acked under the previous boot
// must not be skipped — the fresh boot ID forces every edge through a
// resync instead.
func newBootID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand not failing is a platform invariant; fall back to a
		// constant that still differs from any hex boot ID an edge saw.
		return "boot-entropy-unavailable"
	}
	return hex.EncodeToString(b[:])
}

func (s *PipelineServer) initMerge() {
	boot := newBootID()
	s.merge = mergeState{
		boot:  boot,
		bootH: []string{boot},
		fp:    s.p.Fingerprint(),
		edges: make(map[string]*edgeRecord),
	}
	s.mux.HandleFunc("POST /v1/merge", s.admit(s.met.shedMerge, s.handleMergePost))
	s.mux.HandleFunc("GET /v1/merge", s.handleMergeGet)
}

// Boot returns the server's boot ID (exposed for tests and diagnostics).
func (s *PipelineServer) Boot() string { return s.merge.boot }

// handleMergePost folds one edge snapshot into the pipeline:
//
//	200 JSON ack     applied, or deduplicated replay (applied=false)
//	409              fingerprint mismatch — wrong topology, do not retry
//	412              boot mismatch — root restarted, resync and re-push
//	400              malformed or invalid snapshot
//
// Every response carries the root's boot ID in the Ldp-Boot header.
func (s *PipelineServer) handleMergePost(w http.ResponseWriter, r *http.Request) {
	status, wrote := 0, 0
	if s.observing() {
		start := time.Now()
		defer func() { s.finish(&s.met.merge, r, status, wrote, start) }()
	}
	w.Header()["Ldp-Boot"] = s.merge.bootH

	body, tooLarge, err := readCapped(r, cluster.MaxSnapshotSize+13)
	if err != nil {
		s.met.mergeRejected.Inc()
		status = s.fail(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if tooLarge {
		s.met.mergeRejected.Inc()
		status = s.fail(w, "snapshot too large", http.StatusRequestEntityTooLarge)
		return
	}
	snap, err := cluster.DecodeSnapshot(body)
	if err != nil {
		s.met.mergeRejected.Inc()
		status = s.fail(w, err.Error(), http.StatusBadRequest)
		return
	}
	if snap.Fingerprint != s.merge.fp {
		s.met.mergeFpMismatch.Inc()
		status = s.fail(w, "snapshot fingerprint does not match this pipeline's configuration", http.StatusConflict)
		return
	}
	if snap.Boot != s.merge.boot {
		s.met.mergeBootMismatch.Inc()
		status = s.fail(w, "boot mismatch: this root restarted, resync before pushing", http.StatusPreconditionFailed)
		return
	}

	m := &s.merge
	m.mu.Lock()
	rec := m.edges[snap.Edge]
	if rec == nil {
		if len(m.edges) >= maxMergeEdges {
			m.mu.Unlock()
			s.met.mergeRejected.Inc()
			status = s.fail(w, "too many distinct edges", http.StatusServiceUnavailable)
			return
		}
		rec = &edgeRecord{}
		m.edges[snap.Edge] = rec
	}
	applied := false
	if snap.Seq > rec.seq {
		// Latch Merged before the fold (see Merged), but only for a state
		// that will fold: a rejected push must not stop checkpointing.
		if s.p.CheckState(snap.State) == nil {
			s.merged.Store(true)
		}
		if err := s.p.MergeState(snap.State); err != nil {
			m.mu.Unlock()
			s.met.mergeRejected.Inc()
			status = s.fail(w, err.Error(), http.StatusBadRequest)
			return
		}
		if rec.applied == nil {
			rec.applied = snap.State.Clone()
		} else if err := rec.applied.Add(snap.State); err != nil {
			// Unreachable once a first snapshot fixed the shapes and
			// MergeState validated this one, but never die silently.
			m.mu.Unlock()
			s.met.mergeRejected.Inc()
			status = s.fail(w, "accumulate edge state: "+err.Error(), http.StatusInternalServerError)
			return
		}
		rec.seq = snap.Seq
		applied = true
		s.met.mergeApplied.Inc()
		s.met.mergeReports.Add(uint64(snap.State.Total()))
	} else {
		s.met.mergeDuplicate.Inc()
	}
	m.mu.Unlock()

	ack, err := json.Marshal(cluster.MergeAck{Edge: snap.Edge, Seq: snap.Seq, Applied: applied, Boot: m.boot})
	if err != nil {
		status = s.fail(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(ack)
	status, wrote = http.StatusOK, len(ack)
	if s.log != nil {
		s.log.Info("merged edge snapshot",
			"edge", snap.Edge, "seq", snap.Seq, "applied", applied, "reports", snap.State.Total())
	}
}

// handleMergeGet serves resynchronization: GET /v1/merge?edge=ID returns
// a binary snapshot of the cumulative state this root has applied from
// that edge (404 for an unknown edge). Either way the Ldp-Boot header
// tells the edge which boot its next push must reference.
func (s *PipelineServer) handleMergeGet(w http.ResponseWriter, r *http.Request) {
	status, wrote := 0, 0
	if s.observing() {
		start := time.Now()
		defer func() { s.finish(&s.met.merge, r, status, wrote, start) }()
	}
	w.Header()["Ldp-Boot"] = s.merge.bootH
	edge := r.URL.Query().Get("edge")
	if edge == "" {
		status = s.fail(w, "resync needs edge=", http.StatusBadRequest)
		return
	}

	m := &s.merge
	m.mu.Lock()
	rec := m.edges[edge]
	var frame []byte
	if rec != nil {
		var err error
		frame, err = cluster.EncodeSnapshot(&cluster.Snapshot{
			Fingerprint: m.fp,
			Edge:        edge,
			Seq:         rec.seq,
			Boot:        m.boot,
			State:       rec.applied,
		})
		if err != nil {
			m.mu.Unlock()
			status = s.fail(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	m.mu.Unlock()

	if frame == nil {
		status = s.fail(w, "unknown edge", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(frame)
	status, wrote = http.StatusOK, len(frame)
}
