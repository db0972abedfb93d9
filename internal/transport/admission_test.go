package transport

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ldp/internal/cluster"
	"ldp/internal/rng"
	"ldp/internal/telemetry"
)

// slotHolder occupies admission slots by POSTing bodies that stall until
// released, so tests can fill the limiter deterministically.
type slotHolder struct {
	wg      sync.WaitGroup
	writers []*io.PipeWriter
}

// hold starts a POST /v1/report whose body never finishes arriving; the
// handler sits in its body read, holding one admission slot.
func (h *slotHolder) hold(s *PipelineServer) {
	pr, pw := io.Pipe()
	h.writers = append(h.writers, pw)
	req := httptest.NewRequest(http.MethodPost, "/v1/report", pr)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	// The handler holds its slot once it enters the body read; give the
	// goroutine a moment to get there.
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.InFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

func (h *slotHolder) release() {
	for _, pw := range h.writers {
		pw.CloseWithError(io.ErrUnexpectedEOF)
	}
	h.wg.Wait()
}

func TestAdmissionShedsOverLimit(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewPipelineServer(newTestPipeline(t), nil,
		WithServerTelemetry(reg),
		WithAdmission(AdmissionConfig{MaxInFlight: 1, RetryAfter: 7 * time.Second}),
	)

	var holder slotHolder
	holder.hold(s)

	// Slot taken: the next mutating request is shed before its body is
	// read.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/report", strings.NewReader("junk")))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit POST: status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", got)
	}
	// Merge POSTs share the same limiter.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/merge", strings.NewReader("junk")))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit merge POST: status %d, want 429", rec.Code)
	}
	// Cheap cached GETs are never shed.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats under load: status %d, want 200", rec.Code)
	}

	holder.release()

	// Slot free again: admitted (the bad body 400s, but it got in).
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/report", strings.NewReader("junk")))
	if rec.Code == http.StatusTooManyRequests {
		t.Fatal("request shed after the slot was released")
	}

	var sb strings.Builder
	if _, err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ldp_http_shed_total{route="/v1/report"} 1`,
		`ldp_http_shed_total{route="/v1/merge"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// shedWriter is the cheapest possible ResponseWriter: the alloc test
// needs the shed path itself, not recorder bookkeeping, measured.
type shedWriter struct{ h http.Header }

func (w *shedWriter) Header() http.Header         { return w.h }
func (w *shedWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *shedWriter) WriteHeader(int)             {}

func TestAdmissionShedPathZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewPipelineServer(newTestPipeline(t), nil,
		WithServerTelemetry(reg),
		WithAdmission(AdmissionConfig{MaxInFlight: 1}),
	)
	var holder slotHolder
	holder.hold(s)
	defer holder.release()

	h := s.mux // routing itself must stay allocation-free too
	w := &shedWriter{h: make(http.Header, 4)}
	req := httptest.NewRequest(http.MethodPost, "/v1/report", nil)
	req.Body = http.NoBody
	allocs := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	})
	if allocs != 0 {
		t.Errorf("shed path allocates %.1f/op, want 0", allocs)
	}
}

func TestAdmissionTimeoutSetsDeadline(t *testing.T) {
	s := NewPipelineServer(newTestPipeline(t), nil,
		WithAdmission(AdmissionConfig{MaxInFlight: 4, Timeout: 250 * time.Millisecond}),
	)
	var gotDeadline bool
	h := s.admit(nil, func(w http.ResponseWriter, r *http.Request) {
		_, gotDeadline = r.Context().Deadline()
	})
	h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/report", nil))
	if !gotDeadline {
		t.Fatal("admitted request carries no deadline")
	}

	// Without a timeout the context is left alone.
	s2 := NewPipelineServer(newTestPipeline(t), nil, WithAdmission(AdmissionConfig{MaxInFlight: 4}))
	h = s2.admit(nil, func(w http.ResponseWriter, r *http.Request) {
		_, gotDeadline = r.Context().Deadline()
	})
	h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/report", nil))
	if gotDeadline {
		t.Fatal("timeout-less admission added a deadline")
	}
}

func TestClientRetriesThroughShedding(t *testing.T) {
	// A server that sheds the first two uploads with 429 + Retry-After and
	// accepts the third: a client built WithRetry should land the batch.
	p := newTestPipeline(t)
	inner := NewPipelineServer(p, nil)
	var sheds int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && sheds < 2 {
			sheds++
			w.Header().Set("Retry-After", "0")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewPipelineClient(srv.URL, p, WithRetry(cluster.RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	}))
	r := rng.NewStream(99, 0)
	if err := c.Send(context.Background(), randomTuple(p.Schema(), r), r); err != nil {
		t.Fatalf("send through shedding: %v", err)
	}
	if sheds != 2 {
		t.Fatalf("sheds = %d, want 2", sheds)
	}
	if got := p.Watermark(); got != 1 {
		t.Fatalf("reports folded = %d, want 1", got)
	}
}

func TestHealthEndpoints(t *testing.T) {
	var walErr error
	s := NewPipelineServer(newTestPipeline(t), nil,
		WithReadyChecks(ReadyCheck{Name: "wal", Check: func() error { return walErr }}),
	)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz while healthy: %d", rec.Code)
	}

	// A failing dependency flips readiness, not liveness, and is named.
	walErr = io.ErrClosedPipe
	rec := get("/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with failing check: %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "wal:") {
		t.Fatalf("readyz body does not name the failing check: %q", rec.Body.String())
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz with failing readiness: %d", rec.Code)
	}

	// Draining: readyz 503 even with healthy checks.
	walErr = nil
	s.SetDraining(true)
	rec = get("/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("readyz while draining: %d %q", rec.Code, rec.Body.String())
	}
	s.SetDraining(false)
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after drain cleared: %d", rec.Code)
	}
}

// TestReadCappedBody covers both body-read paths: a declared
// Content-Length (one exact allocation) and an unknown length (capped
// ReadAll), each under and over the cap, plus a body shorter than its
// declared length.
func TestReadCappedBody(t *testing.T) {
	const limit = 16
	unknown := func(s string) io.Reader { return io.MultiReader(strings.NewReader(s)) }
	for _, tc := range []struct {
		name     string
		body     io.Reader
		declared int64 // 0: whatever httptest derives from body
		want     string
		tooLarge bool
		fails    bool
	}{
		{name: "declared", body: strings.NewReader("frames"), want: "frames"},
		{name: "declared at cap", body: strings.NewReader(strings.Repeat("x", limit)), want: strings.Repeat("x", limit)},
		{name: "declared over cap", body: strings.NewReader(strings.Repeat("x", limit+1)), tooLarge: true},
		{name: "unknown", body: unknown("frames"), want: "frames"},
		{name: "unknown over cap", body: unknown(strings.Repeat("x", limit+1)), tooLarge: true},
		{name: "short of declared", body: strings.NewReader("frames"), declared: 10, fails: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/v1/report", tc.body)
			if tc.declared != 0 {
				r.ContentLength = tc.declared
			}
			body, tooLarge, err := readCapped(r, limit)
			if (err != nil) != tc.fails || tooLarge != tc.tooLarge || string(body) != tc.want {
				t.Fatalf("readCapped = %q, tooLarge %v, err %v; want %q, tooLarge %v, fails %v", body, tooLarge, err, tc.want, tc.tooLarge, tc.fails)
			}
		})
	}
}
