package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mmjoin/internal/mstore"
	"mmjoin/internal/service"
)

func openCfg(rate float64, d time.Duration) Config {
	return Config{BaseURL: "http://unused", Seed: 42, Mode: OpenPoisson, Rate: rate, Duration: d}
}

// TestScheduleDeterministic: the whole open-loop schedule — arrival
// times, endpoint choices, Zipf keys, join algorithms — is a pure
// function of (Config, NR). Two builds must be identical; a different
// seed must diverge.
func TestScheduleDeterministic(t *testing.T) {
	cfg := openCfg(500, time.Second)
	cfg.Mix.LookupFraction = 0.6
	a, err := BuildSchedule(cfg, 9000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSchedule(cfg, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}
	cfg.Seed = 43
	c, err := BuildSchedule(cfg, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestClientStreamDeterministic: closed-loop clients draw deterministic
// per-client op/think sequences, independent across client indices.
func TestClientStreamDeterministic(t *testing.T) {
	cfg := Config{BaseURL: "http://unused", Seed: 7, Mode: Closed}
	if err := cfg.withDefaults(); err != nil {
		t.Fatal(err)
	}
	type drawn struct {
		Op    Op
		Think time.Duration
	}
	draw := func(client, n int) []drawn {
		next := clientStream(cfg, 5000, client)
		out := make([]drawn, n)
		for i := range out {
			out[i].Op, out[i].Think = next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(0, 200), draw(0, 200)) {
		t.Fatal("client 0 stream not deterministic")
	}
	if reflect.DeepEqual(draw(0, 200), draw(1, 200)) {
		t.Fatal("clients 0 and 1 drew identical streams")
	}
}

// TestScheduleShape: Poisson arrivals land near the offered rate with
// monotone timestamps inside the horizon; bursts arrive in
// BurstSize-sized spikes sharing one intended time; the mix fractions
// and Zipf skew show up in the drawn ops.
func TestScheduleShape(t *testing.T) {
	cfg := openCfg(1000, 2*time.Second)
	cfg.Mix.LookupFraction = 0.75
	ops, err := BuildSchedule(cfg, 9000)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Rate * cfg.Duration.Seconds()
	if n := float64(len(ops)); n < want*0.8 || n > want*1.2 {
		t.Fatalf("%d ops for offered %g", len(ops), want)
	}
	lookups, keyZero := 0, 0
	var prev time.Duration
	for _, op := range ops {
		if op.At < prev || op.At >= cfg.Duration {
			t.Fatalf("arrival %v out of order or past horizon", op.At)
		}
		prev = op.At
		if op.Kind == KindLookup {
			lookups++
			if op.Key == 0 {
				keyZero++
			}
			if op.Key < 0 || op.Key >= 9000 {
				t.Fatalf("key %d out of range", op.Key)
			}
		} else if op.Alg == "" {
			t.Fatal("join op without algorithm")
		}
	}
	if f := float64(lookups) / float64(len(ops)); f < 0.65 || f > 0.85 {
		t.Fatalf("lookup fraction %.2f, want ~0.75", f)
	}
	// Zipf rank 0 must dominate: far more than the uniform 1/9000 share.
	if float64(keyZero)/float64(lookups) < 0.05 {
		t.Fatalf("hottest key drawn %d/%d times — not Zipf-skewed", keyZero, lookups)
	}

	cfg.Mode = OpenBurst
	cfg.BurstSize = 32
	bops, err := BuildSchedule(cfg, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if len(bops)%32 != 0 {
		t.Fatalf("%d burst ops, not a multiple of 32", len(bops))
	}
	for i := 0; i < len(bops); i += 32 {
		for j := 1; j < 32; j++ {
			if bops[i+j].At != bops[i].At {
				t.Fatalf("burst %d not simultaneous", i/32)
			}
		}
	}
}

// stubServer fakes just enough of mmdb serve's /v1 surface for
// open-loop runner tests and returns its base URL: /v1/stats reports
// the database shape and the counters a served run would move,
// /v1/lookup answers 200 after a fixed service delay, and /v1/join
// answers 200 as an indexed store does when auto picks index-nl.
func stubServer(t *testing.T, nr, d int, delay time.Duration) string {
	t.Helper()
	var joins, lookups atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(rw http.ResponseWriter, r *http.Request) {
		st := service.Stats{
			DB: mstore.StoreStats{D: d, NR: nr, NS: nr},
			Counters: map[string]int64{
				"join_requests_total":    joins.Load(),
				"join_executed_index-nl": joins.Load(),
				"lookups_total":          lookups.Load(),
				"lookups_ok":             lookups.Load(),
			},
		}
		json.NewEncoder(rw).Encode(st)
	})
	mux.HandleFunc("GET /v1/lookup", func(rw http.ResponseWriter, r *http.Request) {
		lookups.Add(1)
		time.Sleep(delay)
		rw.Write([]byte("{}"))
	})
	mux.HandleFunc("POST /v1/join", func(rw http.ResponseWriter, r *http.Request) {
		joins.Add(1)
		rw.Write([]byte(`{"algorithm":"index-nl"}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL + "/v1"
}

// TestOpenLoopCoordinatedOmissionSafe: with a 40ms server and a 1-wide
// inflight window, an offered rate of 100/s builds a backlog — and the
// recorded latencies must show it, because open-loop latency is measured
// from each request's *intended* send time, not from when the throttled
// dispatcher finally got to it. A coordinated-omission-blind harness
// would record every request at ~40ms here.
func TestOpenLoopCoordinatedOmissionSafe(t *testing.T) {
	const delay = 40 * time.Millisecond
	cfg := Config{
		BaseURL: stubServer(t, 1000, 4, delay), Seed: 3, Mode: OpenPoisson,
		Rate: 100, Duration: 200 * time.Millisecond,
		MaxInflight: 1,
		Mix:         Mix{LookupFraction: 1},
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent < 10 {
		t.Fatalf("only %d requests sent", res.Sent)
	}
	ok := res.MergedOK()
	if ok.Count() != res.Sent {
		t.Fatalf("%d ok of %d sent against an all-200 stub", ok.Count(), res.Sent)
	}
	// ~20 serialized 40ms services against a 200ms schedule: the last
	// request waited most of (sent-5)×40ms behind the backlog.
	if max := time.Duration(ok.Max()); max < 5*delay {
		t.Fatalf("max latency %v under a backlog — coordinated omission: "+
			"latency was measured from dispatch, not intended send", max)
	}
	if p50 := time.Duration(ok.Quantile(0.5)); p50 < delay+delay/2 {
		t.Fatalf("p50 %v ≈ service time despite saturation — backlog wait not charged", p50)
	}
}

// TestReconcileCountsIndexJoins: on an indexed store auto resolves to
// index-nl, so the server counts those joins under
// join_executed_index-nl, and the reconciliation must balance.
func TestReconcileCountsIndexJoins(t *testing.T) {
	cfg := Config{
		BaseURL: stubServer(t, 2000, 4, 0), Seed: 5, Mode: OpenPoisson,
		Rate: 400, Duration: 100 * time.Millisecond,
		Mix: Mix{LookupFraction: 0.5, JoinAlgs: []string{"auto"}},
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes["join.ok"] == 0 {
		t.Fatal("no joins sent")
	}
	if !res.Reconciliation.OK {
		t.Fatalf("reconciliation failed: %v", res.Reconciliation.Problems)
	}
}

// TestRunDeterministicRequestSequence: two runs with the same seed
// against a stub send the identical (endpoint, key, algorithm) sequence
// — asserted via the schedule the runner derives, and end-to-end by the
// per-endpoint totals.
func TestRunDeterministicRequestSequence(t *testing.T) {
	cfg := Config{
		BaseURL: stubServer(t, 2000, 4, 0), Seed: 11, Mode: OpenPoisson,
		Rate: 400, Duration: 250 * time.Millisecond,
		Mix: Mix{LookupFraction: 0.5},
	}
	r1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sent != r2.Sent {
		t.Fatalf("sent %d vs %d across identical seeds", r1.Sent, r2.Sent)
	}
	if !reflect.DeepEqual(r1.Outcomes, r2.Outcomes) {
		t.Fatalf("outcome sets differ: %v vs %v", r1.Outcomes, r2.Outcomes)
	}
	s1, _ := BuildSchedule(cfg, 2000)
	s2, _ := BuildSchedule(cfg, 2000)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("schedules diverged")
	}
}

// TestReportValidate: the schema guard accepts a sound report and names
// what is wrong with a broken one.
func TestReportValidate(t *testing.T) {
	good := func() *Report {
		return &Report{
			Schema: ReportSchema,
			Host:   CurrentHost(),
			Seed:   1,
			DB:     DBInfo{Objects: 1000, D: 4},
			Mixes: []MixCurve{{
				Name: "lookup-heavy-zipf",
				Mode: OpenPoisson.String(),
				Points: []SweepPoint{
					{OfferedRate: 100, Sent: 200, Attempts: 200, P50Ns: 10, P90Ns: 20, P99Ns: 30},
					{OfferedRate: 200, Sent: 400, Attempts: 410, P50Ns: 15, P90Ns: 25, P99Ns: 60, Rate429: 0.1},
				},
			}},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Report)
	}{
		{"wrong schema", func(r *Report) { r.Schema = "nope/v0" }},
		{"missing host", func(r *Report) { r.Host = Host{} }},
		{"missing db", func(r *Report) { r.DB = DBInfo{} }},
		{"no mixes", func(r *Report) { r.Mixes = nil }},
		{"mix without points", func(r *Report) { r.Mixes[0].Points = nil }},
		{"zero rate", func(r *Report) { r.Mixes[0].Points[0].OfferedRate = 0 }},
		{"unordered quantiles", func(r *Report) { r.Mixes[0].Points[0].P50Ns = 99 }},
		{"impossible 429 rate", func(r *Report) { r.Mixes[0].Points[1].Rate429 = 1.5 }},
		{"attempts below sent", func(r *Report) { r.Mixes[0].Points[0].Attempts = 1 }},
	}
	for _, c := range cases {
		r := good()
		c.mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

// TestReportFileRoundTrip: WriteFile → ValidateFile round-trips, and a
// corrupted file fails.
func TestReportFileRoundTrip(t *testing.T) {
	r := &Report{
		Schema: ReportSchema, Host: CurrentHost(), Seed: 9,
		DB: DBInfo{Objects: 100, D: 2},
		Mixes: []MixCurve{{Name: "m", Points: []SweepPoint{
			{OfferedRate: 10, Sent: 5, Attempts: 5},
		}}},
	}
	path := t.TempDir() + "/BENCH_service.json"
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := ValidateFile(path); err != nil {
		t.Fatal(err)
	}
	if err := ValidateFile(t.TempDir() + "/missing.json"); err == nil {
		t.Fatal("missing file validated")
	}
}
