package main

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ldp/internal/dataset"
	"ldp/internal/pipeline"
	"ldp/internal/reportlog"
	"ldp/internal/telemetry"
	"ldp/internal/transport"
)

// stack is an in-process aggregator wired the way cmd/ldpserver wires
// one for the benchmark's flags: shards = GOMAXPROCS, exact staleness,
// incremental views, telemetry, a group-commit WAL (-log-sync 100ms,
// 256 KiB), admission control and readiness checks. Keep it in step with
// cmd/ldpserver.
type stack struct {
	p   *pipeline.Pipeline
	reg *telemetry.Registry
	wal *reportlog.Writer
	ps  *transport.PipelineServer
	// mu is the handler's persistence lock: in-process replays take it
	// around WAL appends exactly as PipelineServer does.
	mu sync.Mutex
}

// newStack builds the stack; an empty walDir runs without persistence.
func newStack(census *dataset.Census, walDir string) (*stack, error) {
	reg := telemetry.NewRegistry()
	p, err := newPipeline(census,
		pipeline.WithShards(runtime.GOMAXPROCS(0)),
		pipeline.WithQueryStaleness(0, 0),
		pipeline.WithIncrementalView(0.25),
		pipeline.WithTelemetry(reg))
	if err != nil {
		return nil, err
	}
	s := &stack{p: p, reg: reg}
	var sink transport.Sink
	var ready []transport.ReadyCheck
	if walDir != "" {
		w, err := reportlog.Open(walDir, 64<<20, reportlog.WithGroupCommit(100*time.Millisecond, 256<<10))
		if err != nil {
			return nil, err
		}
		s.wal, sink = w, w
		ready = append(ready, transport.ReadyCheck{Name: "wal", Check: w.Healthy})
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	s.ps = transport.NewPipelineServer(p, sink,
		transport.WithServerTelemetry(reg),
		transport.WithRequestLog(logger),
		transport.WithReadyChecks(ready...),
		transport.WithAdmission(transport.AdmissionConfig{MaxInFlight: 256, Timeout: 30 * time.Second}))
	return s, nil
}

// close commits and closes the WAL.
func (s *stack) close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// ingest takes one report body through the layers in the order
// PipelineServer's report handler does — decode, validate, WAL append
// under the persistence lock, fold — with a span around each call.
func (s *stack) ingest(t *tracer, parent int32, req int64, body []byte) (int, error) {
	b := pipeline.GetBatch()
	defer pipeline.PutBatch(b)
	id := t.begin("transport.decode", parent, req)
	_, err := transport.DecodeBatch(body, b)
	t.end(id)
	if err != nil {
		return 0, err
	}
	id = t.begin("pipeline.validate", parent, req)
	err = s.p.ValidateBatch(b)
	t.end(id)
	if err != nil {
		return 0, err
	}
	if s.wal != nil {
		id = t.begin("reportlog.append", parent, req)
		s.mu.Lock()
		for off := 0; off < len(body); {
			n, err := transport.FrameLen(body[off:])
			if err == nil {
				err = s.wal.Append(body[off : off+n])
			}
			if err != nil {
				s.mu.Unlock()
				t.end(id)
				return 0, err
			}
			off += n
		}
		s.mu.Unlock()
		t.end(id)
	}
	id = t.begin("pipeline.fold", parent, req)
	s.p.AddBatchValidated(b)
	t.end(id)
	return b.Len(), nil
}

// Span propagation headers: the client sends the id of its post span and
// the request id, so the server-side handler span can name its parent.
const (
	spanHeader = "Perfbench-Span"
	reqHeader  = "Perfbench-Req"
)

// spanHandler wraps a handler in a span whose parent arrives in the
// request headers.
type spanHandler struct {
	t    *tracer
	name string
	h    http.Handler
}

func (sh spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !sh.t.on {
		sh.h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 32)
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	id := sh.t.begin(sh.name, int32(parent), req)
	sh.h.ServeHTTP(w, r)
	sh.t.end(id)
}

// loopback serves h on a fresh loopback port until stop is called; stop
// returns once the serving goroutine has exited.
func loopback(h http.Handler) (url string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l) // returns ErrServerClosed on stop
	}()
	return "http://" + l.Addr().String(), func() { srv.Close(); <-done }, nil
}

// memWriter is a reusable, allocation-free http.ResponseWriter for
// in-memory handler calls.
type memWriter struct {
	h      http.Header
	status int
}

func (m *memWriter) Header() http.Header         { return m.h }
func (m *memWriter) Write(b []byte) (int, error) { return len(b), nil }
func (m *memWriter) WriteHeader(code int)        { m.status = code }

func (m *memWriter) reset() {
	clear(m.h)
	m.status = http.StatusOK
}

// memBody is a reusable request body.
type memBody struct {
	b   []byte
	off int
}

func (m *memBody) Read(p []byte) (int, error) {
	if m.off >= len(m.b) {
		return 0, io.EOF
	}
	n := copy(p, m.b[m.off:])
	m.off += n
	return n, nil
}

func (m *memBody) Close() error { return nil }

// inMemory calls a handler with one request body and no network, so its
// time and allocations are the handler's own.
type inMemory struct {
	h    http.Handler
	req  *http.Request
	body memBody
	w    memWriter
}

func newInMemory(h http.Handler, method, target string) (*inMemory, error) {
	req, err := http.NewRequest(method, target, nil)
	if err != nil {
		return nil, err
	}
	return &inMemory{h: h, req: req, w: memWriter{h: http.Header{}}}, nil
}

// call serves one request carrying body and returns the status.
func (m *inMemory) call(body []byte) int {
	m.body = memBody{b: body}
	m.req.Body = &m.body
	m.req.ContentLength = int64(len(body))
	m.w.reset()
	m.h.ServeHTTP(&m.w, m.req)
	return m.w.status
}

// get serves one GET of target and returns the status and ETag.
func (m *inMemory) get(rawQuery string) (int, string) {
	m.req.URL.RawQuery = rawQuery
	m.req.Body = http.NoBody
	m.w.reset()
	m.h.ServeHTTP(&m.w, m.req)
	return m.w.status, m.w.h.Get("Etag")
}

// epochOf parses a query ETag "q<epoch>".
func epochOf(etag string) (uint64, error) {
	if len(etag) < 4 || etag[0] != '"' || etag[1] != 'q' || etag[len(etag)-1] != '"' {
		return 0, fmt.Errorf("not a query ETag: %q", etag)
	}
	return strconv.ParseUint(etag[2:len(etag)-1], 10, 64)
}
