package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mmjoin/internal/mstore"
)

// newTestServer creates a small database and a server over it. The
// caller's cfg may pre-set budget/queue/grant knobs; Dir, D, and a fast
// calibration are filled in here.
func newTestServer(t *testing.T, objects int, cfg Config) *Server {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	db, err := mstore.CreateDB(dir, 3, objects, objects, 32, 11)
	if err != nil {
		t.Fatal(err)
	}
	db.Close() // the server maps it afresh
	cfg.Dir = dir
	cfg.D = 3
	if cfg.CalibrationOps == 0 {
		cfg.CalibrationOps = 60
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// expectedStats reopens the server's database for ground truth (the
// server itself exposes only the Store interface).
func expectedStats(t *testing.T, s *Server) mstore.JoinStats {
	t.Helper()
	db, err := mstore.OpenDB(s.cfg.Dir, s.cfg.D)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	return db.ExpectedStats()
}

func postJoin(t *testing.T, ts *httptest.Server, req JoinRequest) (*http.Response, JoinResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JoinResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, jr
}

func TestServeJoinAuto(t *testing.T) {
	s := newTestServer(t, 1500, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := expectedStats(t, s)
	resp, jr := postJoin(t, ts, JoinRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if jr.Pairs != want.Pairs || jr.Signature != fmt.Sprintf("%016x", want.Signature) {
		t.Fatalf("result %+v, want %+v", jr, want)
	}
	if len(jr.Plan) == 0 || jr.Plan[0].Algorithm != jr.Algorithm {
		t.Fatalf("auto mode must return the plan, cheapest first: %+v", jr.Plan)
	}
	if jr.PredictedNs <= 0 {
		t.Fatalf("missing prediction: %+v", jr)
	}
}

func TestServeJoinEachAlgorithm(t *testing.T) {
	s := newTestServer(t, 1200, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := expectedStats(t, s)
	for _, alg := range []string{"nested-loops", "sort-merge", "grace", "hybrid-hash"} {
		resp, jr := postJoin(t, ts, JoinRequest{Algorithm: alg, MemBytes: 256 << 10})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", alg, resp.StatusCode)
		}
		if jr.Algorithm != alg {
			t.Fatalf("%s: executed %s", alg, jr.Algorithm)
		}
		if jr.Pairs != want.Pairs || jr.Signature != fmt.Sprintf("%016x", want.Signature) {
			t.Fatalf("%s: result %+v, want %+v", alg, jr, want)
		}
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJoin(t, ts, JoinRequest{Algorithm: "traditional-grace"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: status %d", resp.StatusCode)
	}
	// A grant above the whole budget can never be admitted.
	resp, _ = postJoin(t, ts, JoinRequest{MemBytes: s.cfg.MemBudget + 1})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized grant: status %d", resp.StatusCode)
	}
	// Wire K sizes bucket state outside the admission grant, so absurd
	// values are rejected instead of trusted.
	resp, _ = postJoin(t, ts, JoinRequest{Algorithm: "grace", K: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative k: status %d", resp.StatusCode)
	}
	resp, _ = postJoin(t, ts, JoinRequest{Algorithm: "grace", K: s.store.CountR() + 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("absurd k: status %d", resp.StatusCode)
	}
}

// TestServeSaturationBackpressure fills the budget, shows a queue-less
// server answering 429 with Retry-After, then shows a queued request
// waiting out the congestion and succeeding.
func TestServeSaturationBackpressure(t *testing.T) {
	const budget = 1 << 20
	s := newTestServer(t, 300, Config{MemBudget: budget, MaxQueue: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.adm.Acquire(context.Background(), budget); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJoin(t, ts, JoinRequest{MemBytes: budget})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	s.adm.Release(budget)
	resp, jr := postJoin(t, ts, JoinRequest{MemBytes: budget})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d", resp.StatusCode)
	}
	if jr.Pairs != expectedStats(t, s).Pairs {
		t.Fatalf("wrong result after congestion: %+v", jr)
	}
}

func TestServeQueuedRequestWaits(t *testing.T) {
	const budget = 1 << 20
	s := newTestServer(t, 300, Config{MemBudget: budget})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.adm.Acquire(context.Background(), budget); err != nil {
		t.Fatal(err)
	}
	type result struct {
		code int
		jr   JoinResponse
	}
	done := make(chan result, 1)
	go func() {
		resp, jr := postJoin(t, ts, JoinRequest{MemBytes: budget})
		done <- result{resp.StatusCode, jr}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.Stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	s.adm.Release(budget)
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("queued request: status %d", r.code)
	}
	if r.jr.QueueWaitNs <= 0 {
		t.Fatalf("queued request reports no wait: %+v", r.jr)
	}
}

// TestServeCancellationMidJoin deadlines a request while its join is
// executing: the handler answers 503, the abandoned join finishes in the
// background, and its memory grant is returned.
func TestServeCancellationMidJoin(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	block := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.preJoin = func() {
		once.Do(func() { close(entered) })
		<-block
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, _ := postJoin(t, ts, JoinRequest{TimeoutMs: 150})
		done <- resp.StatusCode
	}()
	<-entered // the join goroutine is running
	if code := <-done; code != http.StatusServiceUnavailable {
		t.Fatalf("abandoned request: status %d, want 503", code)
	}
	// The grant stays charged while the abandoned join still runs…
	if st := s.adm.Stats(); st.UsedBytes == 0 {
		t.Fatal("grant released while join still executing")
	}
	close(block)
	// …and is returned once it completes (Drain waits for exactly that).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := s.adm.Stats(); st.UsedBytes != 0 {
		t.Fatalf("abandoned join leaked its grant: %+v", st)
	}
	if got := s.StatsSnapshot().Counters["join_abandoned"]; got != 1 {
		t.Fatalf("join_abandoned = %d", got)
	}
}

// TestServeGracefulDrain verifies drain semantics: in-flight joins
// complete, new ones are refused, healthz flips to 503.
func TestServeGracefulDrain(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	block := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.preJoin = func() {
		once.Do(func() { close(entered) })
		<-block
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflight := make(chan result2, 1)
	go func() {
		resp, jr := postJoin(t, ts, JoinRequest{})
		inflight <- result2{resp.StatusCode, jr}
	}()
	<-entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitDraining(t, s)

	if resp, err := ts.Client().Get(ts.URL + "/v1/healthz"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	if resp, _ := postJoin(t, ts, JoinRequest{}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("join while draining: %d", resp.StatusCode)
	}
	// Lookups read the mapping too, so drain refuses them as well.
	if resp, err := ts.Client().Get(ts.URL + "/v1/lookup?part=0&index=0"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("lookup while draining: %d", resp.StatusCode)
	}

	close(block) // let the in-flight join finish
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	r := <-inflight
	if r.code != http.StatusOK || r.jr.Pairs != expectedStats(t, s).Pairs {
		t.Fatalf("in-flight join during drain: %+v", r)
	}
}

// TestServeDrainWaitsForAdmissionQueuedJoin pins the drain/inflight
// ordering: a request still waiting in the admission queue has not yet
// spawned its join goroutine, but it registered with the drain waiter on
// arrival, so Drain must not return — and the caller must not unmap the
// database — until that request has run to completion.
func TestServeDrainWaitsForAdmissionQueuedJoin(t *testing.T) {
	const budget = 1 << 20
	s := newTestServer(t, 300, Config{MemBudget: budget})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.adm.Acquire(context.Background(), budget); err != nil {
		t.Fatal(err)
	}
	queued := make(chan result2, 1)
	go func() {
		resp, jr := postJoin(t, ts, JoinRequest{MemBytes: budget})
		queued <- result2{resp.StatusCode, jr}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.Stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitDraining(t, s)
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (err=%v) while a request sat in the admission queue", err)
	case <-time.After(50 * time.Millisecond):
	}

	s.adm.Release(budget) // un-gate the queued join
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	r := <-queued
	if r.code != http.StatusOK || r.jr.Pairs != expectedStats(t, s).Pairs {
		t.Fatalf("queued join during drain: %+v", r)
	}
}

type result2 struct {
	code int
	jr   JoinResponse
}

func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeLookup(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want, err := s.store.Lookup(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/lookup?part=1&index=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lr LookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if lr.RID != want.RID || lr.SPart != want.SPart || lr.SIndex != want.SIndex || lr.SWord != want.SWord {
		t.Fatalf("lookup %+v, want %+v", lr, want)
	}
	for _, bad := range []string{"/v1/lookup?part=9&index=0", "/v1/lookup?part=0&index=999999", "/v1/lookup"} {
		resp, err := ts.Client().Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s: accepted", bad)
		}
	}
}

func TestServeStats(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := postJoin(t, ts, JoinRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Counters["join_requests_total"] < 1 {
		t.Fatalf("counters %+v", st.Counters)
	}
	if st.Admission.BudgetBytes != s.cfg.MemBudget || st.Admission.Admitted < 1 {
		t.Fatalf("admission %+v", st.Admission)
	}
	if st.DB.NR != s.store.CountR() || st.DB.D != 3 {
		t.Fatalf("db %+v", st.DB)
	}
	found := false
	for name, h := range st.Histograms {
		if len(name) > 12 && name[:12] == "join_latency" && h.Count >= 1 && h.MaxNs > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no join latency histogram: %+v", st.Histograms)
	}
}

// TestServeConcurrentClientsRace is the -race stress test: many clients
// issuing planner-chosen and explicit joins concurrently, every result
// checked against the store's ground truth, and the memory budget
// provably never exceeded.
func TestServeConcurrentClientsRace(t *testing.T) {
	const grant = 128 << 10
	// Workers: 2 saturates the shared morsel pool: 16 clients push joins
	// at a pool that executes at most 2 morsels at once, so the test
	// exercises many jobs interleaving on the same workers.
	s := newTestServer(t, 1000, Config{MemBudget: 3 * grant, DefaultGrant: grant, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := expectedStats(t, s)
	wantSig := fmt.Sprintf("%016x", want.Signature)
	algs := []string{"", "nested-loops", "sort-merge", "grace", "hybrid-hash"}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, jr := postJoin(t, ts, JoinRequest{
					Algorithm: algs[(g+i)%len(algs)],
					MemBytes:  grant,
				})
				switch resp.StatusCode {
				case http.StatusOK:
					if jr.Pairs != want.Pairs || jr.Signature != wantSig {
						errs <- fmt.Errorf("client %d: result %+v, want %+v", g, jr, want)
						return
					}
				case http.StatusTooManyRequests:
					// Backpressure is an acceptable answer under saturation.
				default:
					errs <- fmt.Errorf("client %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.adm.Stats()
	if st.PeakUsedBytes > 3*grant {
		t.Fatalf("memory budget exceeded under load: peak %d > %d", st.PeakUsedBytes, 3*grant)
	}
	if st.UsedBytes != 0 {
		t.Fatalf("grants leaked: %+v", st)
	}
	if st.Queued == 0 {
		t.Log("note: no request ever queued (budget admits 3 concurrent joins)")
	}
	// However many joins were in flight, live join execution stayed
	// bounded by the shared pool, not by the request count.
	pool := s.pool.Stats()
	if pool.Workers != 2 {
		t.Fatalf("pool workers = %d, want 2", pool.Workers)
	}
	if pool.PeakBusy > pool.Workers {
		t.Fatalf("peak pool occupancy %d exceeds pool size %d", pool.PeakBusy, pool.Workers)
	}
	if pool.Executed == 0 || pool.Jobs == 0 {
		t.Fatalf("pool never used: %+v", pool)
	}
	snap := s.StatsSnapshot()
	if snap.Pool.Workers != 2 {
		t.Fatalf("/stats pool %+v", snap.Pool)
	}
	if _, ok := snap.Gauges["pool_busy"]; !ok {
		t.Fatalf("/stats gauges missing pool_busy: %v", snap.Gauges)
	}
}
