package transport

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ldp/internal/core"
	"ldp/internal/freq"
	"ldp/internal/mech"
	"ldp/internal/reportlog"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

func pmFactory(eps float64) (mech.Mechanism, error)      { return core.NewPiecewise(eps) }
func oueFactory(eps float64, k int) (freq.Oracle, error) { return freq.NewOUE(eps, k) }
func grrFactory(eps float64, k int) (freq.Oracle, error) { return freq.NewGRR(eps, k) }

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := schema.New(
		schema.Attribute{Name: "age", Kind: schema.Numeric},
		schema.Attribute{Name: "gender", Kind: schema.Categorical, Cardinality: 2},
		schema.Attribute{Name: "region", Kind: schema.Categorical, Cardinality: 70}, // >64 bits
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleReports(t *testing.T, oracle freq.Factory, n int) (*core.Collector, []core.Report) {
	t.Helper()
	s := testSchema(t)
	col, err := core.NewCollector(s, 8, pmFactory, oracle) // k=3: all attrs sampled
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	reps := make([]core.Report, n)
	for i := range reps {
		tup := schema.NewTuple(s)
		tup.Num[0] = rng.Uniform(r, -1, 1)
		tup.Cat[1] = r.IntN(2)
		tup.Cat[2] = r.IntN(70)
		rep, err := col.Perturb(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	return col, reps
}

func reportsEqual(a, b core.Report) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if x.Attr != y.Attr || x.Kind != y.Kind || x.Value != y.Value {
			return false
		}
		if (x.Resp.Bits == nil) != (y.Resp.Bits == nil) || x.Resp.Value != y.Resp.Value {
			return false
		}
		for w := range x.Resp.Bits {
			if x.Resp.Bits[w] != y.Resp.Bits[w] {
				return false
			}
		}
	}
	return true
}

func TestWireRoundTripOUE(t *testing.T) {
	_, reps := sampleReports(t, oueFactory, 50)
	for i, rep := range reps {
		got, err := DecodeReport(EncodeReport(rep))
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if !reportsEqual(got, rep) {
			t.Fatalf("report %d: round trip mismatch", i)
		}
	}
}

func TestWireRoundTripGRR(t *testing.T) {
	_, reps := sampleReports(t, grrFactory, 50)
	for i, rep := range reps {
		got, err := DecodeReport(EncodeReport(rep))
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if !reportsEqual(got, rep) {
			t.Fatalf("report %d: round trip mismatch", i)
		}
	}
}

func TestWireRoundTripSpecialFloats(t *testing.T) {
	rep := core.Report{Entries: []core.Entry{
		{Attr: 0, Kind: core.EntryNumeric, Value: 0},
		{Attr: 1, Kind: core.EntryNumeric, Value: math.Copysign(0, -1)},
		{Attr: 2, Kind: core.EntryNumeric, Value: -17.25},
	}}
	got, err := DecodeReport(EncodeReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(got, rep) {
		t.Fatal("round trip mismatch")
	}
}

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	_, reps := sampleReports(t, oueFactory, 1)
	good := EncodeReport(reps[0])

	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:5],
		"badMagic":  append([]byte("XXXX"), good[4:]...),
		"badVer":    func() []byte { b := bytes.Clone(good); b[4] = 9; return b }(),
		"badLen":    func() []byte { b := bytes.Clone(good); b[5] ^= 0xFF; return b }(),
		"badCRC":    func() []byte { b := bytes.Clone(good); b[len(b)-1] ^= 0xFF; return b }(),
		"bitFlip":   func() []byte { b := bytes.Clone(good); b[12] ^= 0x01; return b }(),
		"truncated": good[:len(good)-4],
	}
	for name, frame := range cases {
		if _, err := DecodeReport(frame); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
}

func TestDecodeRejectsOversizedFrame(t *testing.T) {
	if _, err := DecodeReport(make([]byte, MaxFrameSize+1)); err == nil {
		t.Error("expected error for oversized frame")
	}
}

func TestServerEndToEnd(t *testing.T) {
	col, reps := sampleReports(t, oueFactory, 500)
	agg := core.NewAggregator(col)
	srv := httptest.NewServer(NewServer(agg, nil))
	defer srv.Close()

	client := NewClient(srv.URL+"/", col, srv.Client())
	for _, rep := range reps {
		if err := client.SendReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	if agg.N() != 500 {
		t.Fatalf("aggregator has %d reports, want 500", agg.N())
	}

	// Query endpoints.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/means")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("means status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/freqs?attr=region")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("freqs status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/freqs?attr=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown attr status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/freqs?attr=age")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("numeric attr freqs status %d, want 400", resp.StatusCode)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	col, _ := sampleReports(t, oueFactory, 1)
	srv := httptest.NewServer(NewServer(core.NewAggregator(col), nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/report", "application/octet-stream", bytes.NewReader([]byte("garbage")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
}

func TestServerSendTupleConcurrent(t *testing.T) {
	s := testSchema(t)
	col, err := core.NewCollector(s, 1, pmFactory, oueFactory)
	if err != nil {
		t.Fatal(err)
	}
	agg := core.NewAggregator(col)
	srv := httptest.NewServer(NewServer(agg, nil))
	defer srv.Close()

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := NewClient(srv.URL, col, srv.Client())
			r := rng.NewStream(9, uint64(w))
			for i := 0; i < perWorker; i++ {
				tup := schema.NewTuple(s)
				tup.Num[0] = rng.Uniform(r, -1, 1)
				tup.Cat[1] = r.IntN(2)
				tup.Cat[2] = r.IntN(70)
				if err := client.SendTuple(tup, r); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if agg.N() != workers*perWorker {
		t.Errorf("N = %d, want %d", agg.N(), workers*perWorker)
	}
}

func TestServerPersistsAndReplays(t *testing.T) {
	col, reps := sampleReports(t, oueFactory, 200)
	dir := t.TempDir()
	w, err := reportlog.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	agg := core.NewAggregator(col)
	srv := httptest.NewServer(NewServer(agg, w))
	client := NewClient(srv.URL, col, srv.Client())
	for _, rep := range reps {
		if err := client.SendReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate restart: rebuild a fresh aggregator from the log.
	agg2 := core.NewAggregator(col)
	n, err := Replay(agg2, func(fn func([]byte) error) error {
		_, err := reportlog.Replay(dir, fn)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 || agg2.N() != 200 {
		t.Fatalf("replayed %d reports (agg %d), want 200", n, agg2.N())
	}
	m1, err := agg.MeanEstimate(0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := agg2.MeanEstimate(0)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("replayed mean %v != original %v", m2, m1)
	}
}

func TestClientReportsServerRejection(t *testing.T) {
	col, _ := sampleReports(t, oueFactory, 1)
	// A server built over a different schema rejects the client's frames.
	other, err := schema.New(schema.Attribute{Name: "only", Kind: schema.Numeric})
	if err != nil {
		t.Fatal(err)
	}
	otherCol, err := core.NewCollector(other, 1, pmFactory, oueFactory)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(core.NewAggregator(otherCol), nil))
	defer srv.Close()
	client := NewClient(srv.URL, col, srv.Client())
	rep := core.Report{Entries: []core.Entry{{Attr: 2, Kind: core.EntryNumeric, Value: 1}}}
	if err := client.SendReport(rep); err == nil {
		t.Error("expected rejection for out-of-schema report")
	}
}
