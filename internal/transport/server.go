package transport

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"ldp/internal/core"
)

// Sink receives the raw frame of every accepted report; reportlog.Writer
// satisfies it (wrapped with a mutex by the server). A nil sink disables
// persistence.
type Sink interface {
	Append(payload []byte) error
}

// Server is the aggregator's HTTP front end.
//
//	POST /v1/report     binary report frame -> 204
//	GET  /v1/stats      {"n": ..., "dim": ...}
//	GET  /v1/means      {"attr": mean, ...} for numeric attributes
//	GET  /v1/freqs?attr=name   [f0, f1, ...] for a categorical attribute
type Server struct {
	agg *core.Aggregator
	mux *http.ServeMux

	mu   sync.Mutex
	sink Sink
}

// NewServer wraps an aggregator (and optional persistence sink) in an HTTP
// handler.
func NewServer(agg *core.Aggregator, sink Sink) *Server {
	s := &Server{agg: agg, sink: sink, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/means", s.handleMeans)
	s.mux.HandleFunc("GET /v1/freqs", s.handleFreqs)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Aggregator exposes the underlying aggregator (for replay after restart).
func (s *Server) Aggregator() *core.Aggregator { return s.agg }

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	frame, err := io.ReadAll(io.LimitReader(r.Body, MaxFrameSize+1))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(frame) > MaxFrameSize {
		http.Error(w, "frame too large", http.StatusRequestEntityTooLarge)
		return
	}
	rep, err := DecodeReport(frame)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.agg.Add(rep); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.sink != nil {
		s.mu.Lock()
		err := s.sink.Append(frame)
		s.mu.Unlock()
		if err != nil {
			http.Error(w, "persist: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"n":   s.agg.N(),
		"dim": s.agg.Schema().Dim(),
	})
}

func (s *Server) handleMeans(w http.ResponseWriter, _ *http.Request) {
	sch := s.agg.Schema()
	means := s.agg.MeanEstimates()
	out := make(map[string]float64, len(means))
	for i, idx := range sch.NumericIdx() {
		out[sch.Attrs[idx].Name] = means[i]
	}
	writeJSON(w, out)
}

func (s *Server) handleFreqs(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("attr")
	sch := s.agg.Schema()
	attr := -1
	for i, a := range sch.Attrs {
		if a.Name == name {
			attr = i
			break
		}
	}
	if attr < 0 {
		http.Error(w, fmt.Sprintf("unknown attribute %q", name), http.StatusNotFound)
		return
	}
	freqs, err := s.agg.FreqEstimates(attr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, freqs)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already sent; nothing more to do.
		_ = err
	}
}

// Replay rebuilds aggregator state from persisted frames (used at startup
// with reportlog.Replay).
func Replay(agg *core.Aggregator, frames func(fn func(payload []byte) error) error) (int, error) {
	n := 0
	err := frames(func(payload []byte) error {
		rep, err := DecodeReport(payload)
		if err != nil {
			return fmt.Errorf("transport: replay frame %d: %w", n, err)
		}
		if err := agg.Add(rep); err != nil {
			return fmt.Errorf("transport: replay frame %d: %w", n, err)
		}
		n++
		return nil
	})
	return n, err
}
