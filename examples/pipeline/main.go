// Pipeline: run the full client/server collection system on localhost —
// a unified aggregator with a crash-recoverable report log, and a
// population of clients that randomize locally and upload envelope frames
// in batches over HTTP. Queries are answered over the single /v1/query
// route; after collection, the aggregator's state is rebuilt from the log
// to demonstrate recovery.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ldp"
	"ldp/internal/checkpoint"
	"ldp/internal/dataset"
	"ldp/internal/reportlog"
)

func main() {
	if err := run(5000, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(users int, out io.Writer) error {
	const eps = 1.0
	census := dataset.NewMX()
	p, err := ldp.New(census.Schema(), eps, ldp.WithShards(4))
	if err != nil {
		return err
	}

	logDir, err := os.MkdirTemp("", "ldp-pipeline-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(logDir)
	sink, err := reportlog.Open(logDir, 4<<20)
	if err != nil {
		return err
	}

	// Aggregator on an ephemeral localhost port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: ldp.NewPipelineServer(p, sink)}
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	baseURL := "http://" + ln.Addr().String()
	fmt.Fprintf(out, "unified aggregator listening on %s (report log in %s)\n", baseURL, filepath.Base(logDir))

	// Clients: randomize locally, upload only perturbed frames, 100 per
	// batched request.
	ctx := context.Background()
	start := time.Now()
	client := ldp.NewPipelineClient(baseURL, p, ldp.WithTimeout(10*time.Second))
	const batchSize = 100
	for lo := 0; lo < users; lo += batchSize {
		hi := lo + batchSize
		if hi > users {
			hi = users
		}
		// The randomization stream lives in a disjoint index space (high
		// bit set) so privacy noise is independent of the tuple streams.
		r := ldp.NewRandStream(3, 1<<63|uint64(lo))
		batch := make([]ldp.Tuple, 0, hi-lo)
		for i := lo; i < hi; i++ {
			batch = append(batch, census.Tuple(ldp.NewRandStream(3, uint64(i))))
		}
		if err := client.SendBatch(ctx, batch, r); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "uploaded %d reports in %v\n", users, time.Since(start).Round(time.Millisecond))

	// Query over HTTP: the one route answers every kind.
	var stats struct {
		N     int64            `json:"n"`
		Tasks map[string]int64 `json:"tasks"`
	}
	if err := getJSON(baseURL+"/v1/query?kind=stats", &stats); err != nil {
		return err
	}
	var ageMean struct {
		Mean float64 `json:"mean"`
	}
	if err := getJSON(baseURL+"/v1/query?kind=mean&attr="+census.Schema().Attrs[0].Name, &ageMean); err != nil {
		return err
	}
	fmt.Fprintf(out, "estimated mean age (normalized): %+.4f from n=%d reports (tasks: %v)\n",
		ageMean.Mean, stats.N, stats.Tasks)

	if err := srv.Close(); err != nil {
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}

	// Simulate a restart: recover the log into a fresh pipeline in one
	// pass (restoring a checkpoint first when the directory holds one,
	// as cmd/ldpserver does; this example never writes one).
	fresh, err := ldp.New(census.Schema(), eps, ldp.WithShards(4))
	if err != nil {
		return err
	}
	rec, err := checkpoint.Recover(logDir, fresh)
	if err != nil {
		return err
	}
	replayed := rec.Replayed
	freshMean, err := fresh.Snapshot().Mean(census.Schema().Attrs[0].Name)
	if err != nil {
		return err
	}
	// Batch replay partitions reports across shards differently from the
	// live ingest, so the float sums may differ by a few ulps.
	fmt.Fprintf(out, "after restart: replayed %d reports, mean age %+.4f (agrees to 1e-12: %v)\n",
		replayed, freshMean, math.Abs(freshMean-ageMean.Mean) <= 1e-12)
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, msg)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
