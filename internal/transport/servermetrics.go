package transport

import (
	"log/slog"
	"net/http"
	"time"

	"ldp/internal/telemetry"
)

// routeMetrics is the per-route slice of the HTTP metric families:
// request counts by status class, response latency, response bytes, and
// conditional-GET short-circuits. Handles are nil (no-op) when the server
// runs without telemetry.
type routeMetrics struct {
	c2xx, c3xx, c4xx, c5xx *telemetry.Counter
	latency                *telemetry.Histogram
	bytesOut               *telemetry.Counter
	notMod                 *telemetry.Counter
}

// byStatus maps a response status to its class counter.
func (rm *routeMetrics) byStatus(code int) *telemetry.Counter {
	switch code / 100 {
	case 2:
		return rm.c2xx
	case 3:
		return rm.c3xx
	case 4:
		return rm.c4xx
	default:
		return rm.c5xx
	}
}

// serverMetrics holds the PipelineServer's metric handles. Like the
// pipeline's, every handle is nil-safe, so handler code is unconditional;
// enabled additionally gates the epilogue's clock reads so a server built
// without telemetry (and without a request logger) skips them entirely.
type serverMetrics struct {
	enabled bool

	report routeMetrics
	query  routeMetrics
	model  routeMetrics
	stats  routeMetrics
	merge  routeMetrics

	bytesIn *telemetry.Counter // request body bytes read on /v1/report
	frames  *telemetry.Counter // report frames accepted into the pipeline

	// walAppend times each report request's persist step (servers with a
	// sink only).
	walAppend *telemetry.Histogram

	// Decode-error taxonomy of POST /v1/report: where in the wire-to-fold
	// path a body was thrown away.
	decRead     *telemetry.Counter // body read failed mid-stream
	decTooLarge *telemetry.Counter // body over MaxBatchSize
	decBadFrame *telemetry.Counter // frame decode failed
	decEmpty    *telemetry.Counter // well-formed but empty body
	decReject   *telemetry.Counter // batch rejected by pipeline validation

	// Cluster fan-in outcome taxonomy of POST /v1/merge, plus the number
	// of edge reports folded in through it.
	mergeApplied      *telemetry.Counter // snapshot folded into the pipeline
	mergeDuplicate    *telemetry.Counter // replayed sequence number, deduplicated
	mergeBootMismatch *telemetry.Counter // push against a previous boot epoch
	mergeFpMismatch   *telemetry.Counter // mismatched pipeline configuration
	mergeRejected     *telemetry.Counter // malformed or invalid snapshot
	mergeReports      *telemetry.Counter // reports merged from edges

	queryEvict *telemetry.Counter // cached query responses evicted by the per-epoch bound

	// Admission-control sheds (429 before the body is read), by route.
	shedReport *telemetry.Counter
	shedMerge  *telemetry.Counter
}

// newServerMetrics registers the transport metric families on reg. A nil
// registry leaves every handle nil and enabled false.
func newServerMetrics(reg *telemetry.Registry) serverMetrics {
	m := serverMetrics{enabled: reg != nil}
	if reg == nil {
		return m
	}
	m.report = newRouteMetrics(reg, "/v1/report")
	m.query = newRouteMetrics(reg, "/v1/query")
	m.model = newRouteMetrics(reg, "/v1/model")
	m.stats = newRouteMetrics(reg, "/v1/stats")

	m.bytesIn = reg.Counter("ldp_http_request_bytes_total",
		"Request body bytes read, by route.", telemetry.L("route", "/v1/report"))
	m.frames = reg.Counter("ldp_report_frames_total",
		"Report frames accepted into the pipeline over HTTP.")

	const decodeHelp = "Report uploads rejected before folding, by reason."
	m.decRead = reg.Counter("ldp_report_decode_errors_total", decodeHelp, telemetry.L("reason", "read"))
	m.decTooLarge = reg.Counter("ldp_report_decode_errors_total", decodeHelp, telemetry.L("reason", "too_large"))
	m.decBadFrame = reg.Counter("ldp_report_decode_errors_total", decodeHelp, telemetry.L("reason", "bad_frame"))
	m.decEmpty = reg.Counter("ldp_report_decode_errors_total", decodeHelp, telemetry.L("reason", "empty"))
	m.decReject = reg.Counter("ldp_report_decode_errors_total", decodeHelp, telemetry.L("reason", "reject"))

	m.merge = newRouteMetrics(reg, "/v1/merge")
	const mergeHelp = "Cluster fan-in merge attempts, by outcome."
	m.mergeApplied = reg.Counter("ldp_cluster_merges_total", mergeHelp, telemetry.L("result", "applied"))
	m.mergeDuplicate = reg.Counter("ldp_cluster_merges_total", mergeHelp, telemetry.L("result", "duplicate"))
	m.mergeBootMismatch = reg.Counter("ldp_cluster_merges_total", mergeHelp, telemetry.L("result", "boot_mismatch"))
	m.mergeFpMismatch = reg.Counter("ldp_cluster_merges_total", mergeHelp, telemetry.L("result", "fingerprint_mismatch"))
	m.mergeRejected = reg.Counter("ldp_cluster_merges_total", mergeHelp, telemetry.L("result", "rejected"))
	m.mergeReports = reg.Counter("ldp_cluster_merged_reports_total",
		"Edge reports folded into this pipeline via /v1/merge.")

	m.queryEvict = reg.Counter("ldp_query_cache_evictions_total",
		"Pre-encoded query responses evicted (oldest-first) to stay inside the per-epoch cache bounds.")

	const shedHelp = "Requests shed with 429 by the admission limiter before decoding, by route."
	m.shedReport = reg.Counter("ldp_http_shed_total", shedHelp, telemetry.L("route", "/v1/report"))
	m.shedMerge = reg.Counter("ldp_http_shed_total", shedHelp, telemetry.L("route", "/v1/merge"))
	return m
}

func newRouteMetrics(reg *telemetry.Registry, route string) routeMetrics {
	l := telemetry.L("route", route)
	const reqHelp = "HTTP requests served, by route and status class."
	return routeMetrics{
		c2xx: reg.Counter("ldp_http_requests_total", reqHelp, l, telemetry.L("code", "2xx")),
		c3xx: reg.Counter("ldp_http_requests_total", reqHelp, l, telemetry.L("code", "3xx")),
		c4xx: reg.Counter("ldp_http_requests_total", reqHelp, l, telemetry.L("code", "4xx")),
		c5xx: reg.Counter("ldp_http_requests_total", reqHelp, l, telemetry.L("code", "5xx")),
		latency: reg.Histogram("ldp_http_request_duration_ns",
			"Request handling latency in nanoseconds (power-of-two buckets), by route.", l),
		bytesOut: reg.Counter("ldp_http_response_bytes_total",
			"Response body bytes written, by route.", l),
		notMod: reg.Counter("ldp_http_not_modified_total",
			"Conditional GETs short-circuited with 304 via If-None-Match, by route.", l),
	}
}

// finish is the shared handler epilogue: it folds the response into the
// route's metric series and emits the per-request debug log line. Callers
// run it from an open-coded defer with status and wrote as closed-over
// locals, entered only when telemetry or logging is live, so the plain
// configuration pays nothing and the instrumented cached-hit paths stay
// allocation-free (slog attrs are built only past the Enabled gate).
// A zero status means no explicit WriteHeader ran, i.e. an implicit 200.
func (s *PipelineServer) finish(rm *routeMetrics, r *http.Request, status, wrote int, start time.Time) {
	if status == 0 {
		status = http.StatusOK
	}
	if s.met.enabled {
		rm.byStatus(status).Inc()
		rm.bytesOut.Add(uint64(wrote))
		rm.latency.ObserveSince(start)
		if status == http.StatusNotModified {
			rm.notMod.Inc()
		}
	}
	if s.log != nil && s.log.Enabled(r.Context(), slog.LevelDebug) {
		s.log.LogAttrs(r.Context(), slog.LevelDebug, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int("bytes", wrote),
			slog.Int64("elapsed_ns", time.Since(start).Nanoseconds()),
		)
	}
}

// observing reports whether handlers need the telemetry/logging epilogue
// at all; false keeps the clock reads and the deferred call off the
// request path entirely.
func (s *PipelineServer) observing() bool { return s.met.enabled || s.log != nil }
