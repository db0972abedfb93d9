package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	"ldp/internal/dataset"
)

// e2eMetrics lists every end-to-end metric with its unit, in print order.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ingest_reports_per_s", "1/s"},
	{"restart_s", "s"},
	{"send_p50_ms", "ms"},
	{"send_p90_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"server_rss_mb", "MiB"},
}

// newRunner prepares a run's state and its scratch directory.
func newRunner(o options, dir string) (*runner, error) {
	census := dataset.NewBR()
	cp, err := newPipeline(census)
	if err != nil {
		return nil, err
	}
	r := &runner{
		o: o, cp: cp, dir: dir, out: o.stdout,
		pop:   population{seed: o.seed, census: census},
		conns: loadConns(runtime.NumCPU()),
		qrng:  newQueryStream(o.seed),
	}
	if r.addr, err = freeAddr(); err != nil {
		return nil, err
	}
	return r, nil
}

// runE2E runs one end-to-end workload against the real ldpserver binary:
// set-up on an empty WAL, the workload's load phase with its probe
// rounds, the correctness gate, and the restarts.
func runE2E(o options, dir string) (result, error) {
	r, err := newRunner(o, dir)
	if err != nil {
		return result{}, err
	}
	m := map[string]float64{}

	// Set-up: launch on an empty WAL several times, keep the last.
	var setups []float64
	var srv *serverProc
	for k := 0; k < setupLaunches; k++ {
		if k > 0 {
			sleepUntil(time.Now().Add(launchGap))
		}
		p, d, err := r.launch()
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		if k < setupLaunches-1 {
			if err := p.stop(); err != nil {
				return result{}, err
			}
			continue
		}
		srv = p
	}
	defer srv.kill()
	// The fastest launch: the machine (an idle vCPU waking late, a
	// neighbour's burst) can only slow a launch, so the minimum moves least
	// from run to run (README, "Steadiness").
	m["setup_s"] = slices.Min(setups)
	fmt.Fprintf(r.out, "setup_s: fastest of %d launches on an empty WAL (median %.6f s)\n", len(setups), median(setups))

	// Main phase.
	var ph phase
	switch o.workload {
	case "ingest-bulk":
		ph, err = r.bulk(srv)
	case "query-live":
		ph = r.queryLive(srv)
	}
	if err != nil {
		return result{}, err
	}
	m["ingest_reports_per_s"] = float64(ph.reports) / ph.wall.Seconds()
	fmt.Fprintf(r.out, "main phase: %d reports acknowledged in %.3f s\n", ph.reports, ph.wall.Seconds())
	if m["server_rss_mb"], err = srv.peakRSSMB(); err != nil {
		return result{}, err
	}

	emit := func(prefix, from string, s []float64) {
		l := summarize(s)
		m[prefix+"_p50_ms"] = l.P50
		m[prefix+"_p90_ms"] = l.P90
		fmt.Fprintf(r.out, "%s (%s): %d samples; p50 %.4f ms, p90 %.4f ms, p99 %.4f ms; highest supported p%g %.4f ms\n",
			prefix, from, l.N, l.P50, l.P90, pooled(s, 99), l.TailP, l.Tail)
	}
	emit("send", "main phase", ph.send)
	emit("query", ph.queryFrom, ph.query)

	// Correctness gate on the live server.
	gc := newConn()
	defer gc.CloseIdleConnections()
	want := r.acked.total()
	if err := waitN(gc, srv.url, want, 30*time.Second); err != nil {
		return failed(r), err
	}
	ref, err := r.buildReference()
	if err != nil {
		return result{}, err
	}
	if err := r.checkAnswers(gc, srv.url, ref, want); err != nil {
		return failed(r), err
	}

	// Drain, then relaunch on the same WAL: acked reports must survive.
	if err := srv.stop(); err != nil {
		return result{}, err
	}
	restarts, err := r.restarts(want)
	if err != nil {
		return failed(r), err
	}
	m["restart_s"] = median(restarts)
	fmt.Fprintf(r.out, "restart_s: median of %d relaunches replaying %d reports (fastest %.6f s)\n", len(restarts), want, slices.Min(restarts))

	res := result{Correct: true, Metrics: map[string]metric{}}
	res.Attempted, res.Failed = r.ops.attempted.Load(), r.ops.failed.Load()
	if err := r.ops.err(); err != nil {
		return res, err
	}
	for _, e := range e2eMetrics {
		v := m[e.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", e.name, v)
		}
		res.Metrics[e.name] = metric{Value: v, Unit: e.unit}
	}
	return res, nil
}

// failed is the result of a run whose outputs were wrong: no numbers.
func failed(r *runner) result {
	return result{Correct: false, Attempted: r.ops.attempted.Load(), Failed: r.ops.failed.Load(), Metrics: map[string]metric{}}
}

// waitN waits until base's /v1/stats n reaches want.
func waitN(c *http.Client, base string, want int64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		n, err := statsN(c, base)
		if err == nil && n >= want {
			if n > want {
				return fmt.Errorf("server %s counts n=%d, more than the %d acknowledged", base, n, want)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %s reached n=%d (err %v), want %d", base, n, err, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// restarts relaunches the server on its WAL restartLaunches times, each
// timed until /readyz answers 200 and n equals the acknowledged count,
// which replay must restore exactly.
func (r *runner) restarts(want int64) ([]float64, error) {
	var out []float64
	begin := time.Now()
	for k := 0; k < restartLaunches && (k < minRestarts || time.Since(begin) < restartBudget); k++ {
		if k > 0 {
			sleepUntil(time.Now().Add(launchGap))
		}
		start := time.Now()
		p, err := r.start("node-restart.log", func(p *serverProc) (bool, error) {
			n, err := statsN(probeClient, p.url)
			if err != nil {
				return false, nil
			}
			if n != want {
				return false, fmt.Errorf("relaunched server counts n=%d, acknowledged %d", n, want)
			}
			return true, nil
		})
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		if err := p.stop(); err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// mustDir creates a fresh directory.
func mustDir(path string) error {
	if err := os.RemoveAll(path); err != nil {
		return err
	}
	return os.MkdirAll(path, 0o755)
}
