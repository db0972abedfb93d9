package transport

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ldp/internal/telemetry"
)

// textContentType is the Content-Type of plain-text responses on the
// shed and health paths, preallocated like jsonContentType so writing it
// costs no allocation.
var textContentType = []string{"text/plain; charset=utf-8"}

// AdmissionConfig bounds the work an aggregator accepts before it falls
// over, instead of after. It applies to the mutating routes (POST
// /v1/report and POST /v1/merge) — the ones that read and decode
// multi-megabyte bodies; cached GETs are cheap enough to always answer.
type AdmissionConfig struct {
	// MaxInFlight is the number of mutating requests processed
	// concurrently; requests beyond it are shed with 429 before their body
	// is read. Zero or negative picks the default (256).
	MaxInFlight int
	// RetryAfter is the backoff hint attached to shed responses (rounded
	// up to whole seconds; default 1s). Clients built WithRetry come back
	// at this cadence instead of their own exponential guess.
	RetryAfter time.Duration
	// Timeout bounds each admitted mutating request via its context, so a
	// client that trickles its body cannot hold an admission slot forever.
	// Zero leaves requests unbounded (the listener's own timeouts still
	// apply).
	Timeout time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// WithAdmission enables admission control with the given bounds. Without
// this option every request is admitted, as before.
func WithAdmission(cfg AdmissionConfig) ServerOption {
	return func(s *PipelineServer) { s.adm = newAdmission(cfg) }
}

// admission is the bounded in-flight limiter. The counter is a bare
// atomic — no channel, no mutex — and the 429 header value and body are
// preformatted, so the shed path allocates nothing: under overload the
// refusals must stay cheaper than the work being refused.
type admission struct {
	max      int64
	inflight atomic.Int64
	timeout  time.Duration
	retryHdr []string // preformatted Retry-After seconds
	shedBody []byte
}

func newAdmission(cfg AdmissionConfig) *admission {
	cfg = cfg.withDefaults()
	secs := int64((cfg.RetryAfter + time.Second - 1) / time.Second)
	return &admission{
		max:      int64(cfg.MaxInFlight),
		timeout:  cfg.Timeout,
		retryHdr: []string{strconv.FormatInt(secs, 10)},
		shedBody: []byte("overloaded, retry later\n"),
	}
}

// InFlight returns the number of currently admitted mutating requests
// (for tests and diagnostics).
func (a *admission) InFlight() int64 { return a.inflight.Load() }

// admit wraps a mutating-route handler with the server's admission
// limiter. shed is the route's ldp_http_shed_total counter (nil-safe).
// Without WithAdmission the wrapper is the handler itself — the default
// path gains no indirection.
func (s *PipelineServer) admit(shed *telemetry.Counter, h http.HandlerFunc) http.HandlerFunc {
	a := s.adm
	if a == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if a.inflight.Add(1) > a.max {
			a.inflight.Add(-1)
			shed.Inc()
			hdr := w.Header()
			hdr["Retry-After"] = a.retryHdr
			hdr["Content-Type"] = textContentType
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write(a.shedBody)
			return
		}
		defer a.inflight.Add(-1)
		if a.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), a.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// readCapped reads the request body up to limit bytes, reporting a body
// that exceeds the cap instead of silently truncating it. Every mutating
// route reads its body through this helper so the cap handling cannot
// drift between them.
func readCapped(r *http.Request, limit int) (body []byte, tooLarge bool, err error) {
	if n := r.ContentLength; n > 0 && n <= int64(limit) {
		// A declared length within the cap sizes the buffer up front: one
		// allocation per body instead of ReadAll's trail of outgrown
		// buffers, which on 1024-report batches was most of a request's
		// garbage. net/http ends the body at the declared length.
		body = make([]byte, n)
		if _, err := io.ReadFull(r.Body, body); err != nil {
			return nil, false, err
		}
		return body, false, nil
	}
	body, err = io.ReadAll(io.LimitReader(r.Body, int64(limit)+1))
	if err != nil {
		return nil, false, err
	}
	if len(body) > limit {
		return nil, true, nil
	}
	return body, false, nil
}
