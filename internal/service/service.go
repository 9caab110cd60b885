package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/metrics"
	"mmjoin/internal/model"
	"mmjoin/internal/mstore"
	"mmjoin/internal/planner"
	"mmjoin/internal/relation"
	"mmjoin/internal/sim"
)

// Config parameterizes one server. Zero values select the documented
// defaults.
type Config struct {
	// Dir is the database directory and D its partition count. Required
	// unless Store is set.
	Dir string
	D   int

	// Store, when non-nil, is a pre-opened store the server serves
	// instead of opening Dir — this is how the sharded scatter-gather
	// router is mounted (`mmdb serve -shard-map`). The server takes
	// ownership: Close closes it.
	Store mstore.Store

	// TmpDir roots per-request spill directories (default Dir/tmp when
	// Dir is set, else the OS temp dir).
	TmpDir string

	// MemBudget is the total bytes of join memory the service may have
	// charged to concurrently executing joins (default 8·DefaultGrant).
	MemBudget int64
	// DefaultGrant is the per-request memory grant when the request does
	// not name one (default 4 MiB · D).
	DefaultGrant int64
	// MaxQueue bounds the admission wait queue; a full queue answers 429
	// (default 64, negative disables queueing entirely).
	MaxQueue int
	// RequestTimeout caps each request's admission wait plus execution
	// (default 30s; requests may shorten it per call).
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// CalibrationOps is the analytical-model calibration effort at
	// startup (default 800 measured I/Os per band size).
	CalibrationOps int

	// Workers sizes the work-stealing morsel pool shared by every
	// in-flight join (default GOMAXPROCS). However many joins run
	// concurrently, at most Workers goroutines execute join morsels at
	// any instant — the pool, not the request count, bounds CPU fan-out.
	Workers int
}

func (cfg *Config) withDefaults() error {
	if cfg.Store == nil {
		if cfg.Dir == "" {
			return fmt.Errorf("service: database dir or store required")
		}
		if cfg.D < 1 {
			return fmt.Errorf("service: D=%d must be >= 1", cfg.D)
		}
	}
	if cfg.TmpDir == "" {
		if cfg.Dir != "" {
			cfg.TmpDir = filepath.Join(cfg.Dir, "tmp")
		} else {
			cfg.TmpDir = filepath.Join(os.TempDir(), "mmjoin-serve")
		}
	}
	// DefaultGrant and MemBudget default in New, once the store's D is
	// known (a sharded store reports it from its shards).
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.CalibrationOps <= 0 {
		cfg.CalibrationOps = 800
	}
	return nil
}

// Server is the concurrent query service over one mapped database. All
// endpoints are safe for concurrent use; joins execute real goroutine
// parallelism over the shared read-only base relations, with per-request
// temporary directories.
type Server struct {
	cfg   Config
	store mstore.Store
	// shardRunner and shardMgr are the store's optional sharded
	// capabilities (nil for a single mapped database): per-shard join
	// detail, and live add/remove-with-drain membership management.
	shardRunner mstore.ShardRunner
	shardMgr    ShardManager
	d           int                // addressable partition count (store's D)
	w           *relation.Workload // the store's shape+references, for the planner
	pl          *planner.Planner
	sim         machine.Config // simulated machine the planner costs against
	adm         *Admission
	pool        *exec.Pool // morsel pool shared by all in-flight joins

	start time.Time
	// drainMu orders inflight.Add against Drain's draining transition:
	// every request either registers with inflight before Drain flips the
	// flag (and is therefore seen by inflight.Wait) or observes the flag
	// and is rejected. It also keeps Add from running on a zero counter
	// concurrently with Wait, which WaitGroup forbids.
	drainMu  sync.Mutex
	inflight sync.WaitGroup
	draining atomic.Bool
	reqSeq   atomic.Int64

	// peakTableBytes is the server-wide high-water mark of any single
	// join's counted probe-table memory, exported as a gauge.
	peakTableBytes atomic.Int64

	// meanServiceNs is an EWMA of admitted-join execution time (the time
	// a grant stays charged), the rate at which budget slots recycle. It
	// feeds the dynamic Retry-After hint.
	meanServiceNs atomic.Int64

	// preJoin, when set by tests, runs inside the join goroutine after
	// admission and before execution, making mid-join timing
	// deterministic.
	preJoin func()

	mu        sync.Mutex // guards reg and the instrument maps
	reg       *metrics.Registry
	counters  map[string]*metrics.Counter
	hists     map[string]*metrics.Histogram
	histOrder []string
}

// New opens (or adopts) the store, derives its workload shape,
// calibrates the planner, and assembles the admission controller. Close
// releases the store.
func New(cfg Config) (*Server, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	store := cfg.Store
	if store == nil {
		db, err := mstore.OpenDB(cfg.Dir, cfg.D)
		if err != nil {
			return nil, err
		}
		store = db
	}
	stats := store.Stats()
	if cfg.D == 0 {
		cfg.D = stats.D
	}
	if cfg.D < 1 {
		store.Close()
		return nil, fmt.Errorf("service: store reports D=%d", cfg.D)
	}
	if cfg.DefaultGrant <= 0 {
		cfg.DefaultGrant = int64(cfg.D) << 22
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 8 * cfg.DefaultGrant
	}
	w, err := store.Workload()
	if err != nil {
		store.Close()
		return nil, err
	}
	mcfg := machine.DefaultConfig()
	mcfg.D = cfg.D
	calib := model.Calibrate(mcfg, cfg.CalibrationOps, 1)
	// An indexed store widens the candidate set so `auto` can pick the
	// index paths; an unindexed (or partially indexed, sharded) store
	// plans over the four staging algorithms only.
	var algs []join.Algorithm
	if stats.Indexed {
		algs = planner.IndexAlgorithms
	}
	s := &Server{
		cfg:      cfg,
		store:    store,
		d:        cfg.D,
		w:        w,
		pl:       planner.New(calib, algs),
		sim:      mcfg,
		adm:      NewAdmission(cfg.MemBudget, cfg.MaxQueue),
		pool:     exec.NewPool(cfg.Workers),
		start:    time.Now(),
		reg:      metrics.New(),
		counters: make(map[string]*metrics.Counter),
		hists:    make(map[string]*metrics.Histogram),
	}
	if sr, ok := store.(mstore.ShardRunner); ok {
		s.shardRunner = sr
	}
	if mgr, ok := store.(ShardManager); ok {
		s.shardMgr = mgr
	}
	// Pool health as callback gauges: occupancy, queue depth, and steal
	// count read live at every /stats snapshot.
	s.reg.Gauge("pool_workers", func() float64 { return float64(s.pool.Stats().Workers) })
	s.reg.Gauge("pool_busy", func() float64 { return float64(s.pool.Stats().Busy) })
	s.reg.Gauge("pool_peak_busy", func() float64 { return float64(s.pool.Stats().PeakBusy) })
	s.reg.Gauge("pool_queued_morsels", func() float64 { return float64(s.pool.Stats().Queued) })
	s.reg.Gauge("pool_steals", func() float64 { return float64(s.pool.Stats().Steals) })
	s.reg.Gauge("pool_executed_morsels", func() float64 { return float64(s.pool.Stats().Executed) })
	s.reg.Gauge("probe_table_peak_bytes", func() float64 { return float64(s.peakTableBytes.Load()) })
	// Admission occupancy as live gauges, so load tooling can watch the
	// queue drain without diffing counters.
	s.reg.Gauge("admission_queue_depth", func() float64 { return float64(s.adm.QueueDepth()) })
	s.reg.Gauge("admission_used_bytes", func() float64 { return float64(s.adm.Stats().UsedBytes) })
	s.reg.Gauge("retry_after_hint_sec", func() float64 { return s.retryAfterHint().Seconds() })
	// Outcome counters registered eagerly so /stats shows them at zero
	// before the first request arrives — client/server reconciliation
	// diffs these keys and must find them on both snapshots.
	for _, name := range []string{
		"spill_restages_total", "spill_restaged_refs_total", "stream_probes_total",
		"grant_renegotiations_total", "grant_renegotiations_denied_total",
		"temp_relations_total",
		"join_requests_total", "bad_requests", "errors_internal", "join_abandoned",
		"rejected_saturated", "rejected_deadline", "rejected_too_large", "rejected_draining",
		"lookups_total", "lookups_ok", "lookups_bad_request", "lookups_not_found",
		"lookups_failed", "lookups_rejected_draining",
		"join_executed_nested-loops", "join_executed_sort-merge",
		"join_executed_grace", "join_executed_hybrid-hash", "join_executed_auto",
		"shard_adds_total", "shard_removes_total",
	} {
		s.counter(name)
	}
	return s, nil
}

// ShardManager is the optional membership-management capability of
// sharded stores (shard.Router satisfies it): mount a new shard, or
// drain and unmount one. Single-store servers answer 409 on the
// /v1/shards mutation endpoints.
type ShardManager interface {
	AddShard(id, dir string, d int) error
	RemoveShard(ctx context.Context, id string) error
}

// Close releases the worker pool and the store (every mapping behind
// it). Callers should Drain first.
func (s *Server) Close() error {
	s.pool.Close()
	return s.store.Close()
}

// Drain stops admitting new requests (joins answer 503, healthz reports
// draining) and waits until every accepted request — including queued
// ones and joins abandoned by their clients — has finished, or ctx
// expires.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// beginRequest registers one unit of in-flight work with the drain
// waiter, or reports false if the server is draining. Callers that get
// true must s.inflight.Done() when the work finishes; while their
// registration is held, further inflight.Add calls (e.g. for a child
// goroutine) are plain WaitGroup use and need no lock.
func (s *Server) beginRequest() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// counter returns (creating on first use) a named counter.
func (s *Server) counter(name string) *metrics.Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[name]
	if !ok {
		c = s.reg.Counter(name)
		s.counters[name] = c
	}
	return c
}

// observe records a wall-clock duration in a named histogram.
func (s *Server) observe(name string, d time.Duration) {
	s.mu.Lock()
	h, ok := s.hists[name]
	if !ok {
		h = s.reg.Histogram(name)
		s.hists[name] = h
		s.histOrder = append(s.histOrder, name)
	}
	s.mu.Unlock()
	s.mu.Lock()
	h.Observe(sim.Time(d))
	s.mu.Unlock()
}

// inc bumps a named counter (thread-safe).
func (s *Server) inc(name string) { s.add(name, 1) }

// add increases a named counter by d (thread-safe).
func (s *Server) add(name string, d int64) {
	c := s.counter(name)
	s.mu.Lock()
	c.Add(d)
	s.mu.Unlock()
}

// Handler returns the service's HTTP mux. The whole surface lives
// under /v1/ — POST /v1/join, GET /v1/lookup, GET /v1/stats,
// GET /v1/healthz, and shard management under /v1/shards. Every
// handler runs behind panic isolation — a panicking request answers
// 500 and the server keeps serving.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", s.handleJoin)
	mux.HandleFunc("GET /v1/lookup", s.handleLookup)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/shards", s.handleShardsList)
	mux.HandleFunc("POST /v1/shards", s.handleShardsAdd)
	mux.HandleFunc("DELETE /v1/shards/{id}", s.handleShardsRemove)
	return s.isolate(mux)
}

// isolate recovers handler panics into 500 responses.
func (s *Server) isolate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.inc("panics_recovered")
				writeError(rw, http.StatusInternalServerError, "internal",
					fmt.Sprintf("internal panic: %v", v))
			}
		}()
		next.ServeHTTP(rw, r)
	})
}

// ErrorBody is the one JSON error shape every endpoint returns:
//
//	{"error": {"code": "saturated", "message": "...", "retry_after_ms": 1000}}
//
// Code is a small machine-matchable vocabulary (bad_request, draining,
// saturated, grant_too_large, not_found, not_sharded, abandoned,
// drain_timeout, conflict, internal); Message is human prose;
// RetryAfterMs accompanies retryable rejections and mirrors the
// Retry-After header.
type ErrorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope wraps ErrorBody under the top-level "error" key.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

func writeError(rw http.ResponseWriter, status int, code, msg string) {
	writeJSON(rw, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg}})
}

// writeRetryError also sets the Retry-After header (whole seconds,
// rounded up) alongside the millisecond hint in the body.
func writeRetryError(rw http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	rw.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
	writeJSON(rw, status, ErrorEnvelope{Error: ErrorBody{
		Code: code, Message: msg, RetryAfterMs: retryAfter.Milliseconds(),
	}})
}

// JoinRequest is the wire form of one join query.
type JoinRequest struct {
	// Algorithm is "auto" (or empty) for a planner-chosen algorithm, or
	// one of nested-loops, sort-merge, grace, hybrid-hash.
	Algorithm string `json:"algorithm"`
	// MemBytes is the request's total memory grant — the unit of
	// admission control. Zero selects the server default. Each of the D
	// partition goroutines receives MemBytes/D as its MRproc.
	MemBytes int64 `json:"memBytes"`
	// K overrides the Grace/hybrid bucket count (0: derive from grant).
	K int `json:"k"`
	// TimeoutMs shortens the server's request timeout for this call.
	TimeoutMs int64 `json:"timeoutMs"`
}

// PlanEntry is one planner candidate in the response, cheapest first.
type PlanEntry struct {
	Algorithm   string `json:"algorithm"`
	PredictedNs int64  `json:"predictedNs"`
}

// JoinResponse is the wire form of one join result.
type JoinResponse struct {
	Algorithm   string      `json:"algorithm"`
	Pairs       int64       `json:"pairs"`
	Signature   string      `json:"signature"` // hex, order-independent
	MemBytes    int64       `json:"memBytes"`  // granted (charged) bytes
	MRproc      int64       `json:"mrprocBytes"`
	QueueWaitNs int64       `json:"queueWaitNs"`
	ElapsedNs   int64       `json:"elapsedNs"` // execution, excluding queue
	Plan        []PlanEntry `json:"plan,omitempty"`
	PredictedNs int64       `json:"predictedNs,omitempty"` // model's per-join virtual-time estimate

	// Memory-adaptation telemetry (Grace/hybrid-hash): how the join
	// behaved when its grant was tight. Zero values are omitted.
	Restages       int64 `json:"restages,omitempty"`       // oversized buckets respilled to disk
	StreamProbes   int64 `json:"streamProbes,omitempty"`   // hot-key buckets joined by streaming
	Renegotiations int64 `json:"renegotiations,omitempty"` // mid-join grant growths obtained
	PeakTableBytes int64 `json:"peakTableBytes,omitempty"` // high-water counted probe memory

	// Shards carries the per-shard breakdown of a scatter-gather join
	// (sharded stores only): which algorithm each shard planned, its
	// slice of the pairs, and its own telemetry. The merged Pairs and
	// Signature above are the fold of these.
	Shards []ShardJoinDetail `json:"shards,omitempty"`
}

// ShardJoinDetail is one shard's contribution on the wire.
type ShardJoinDetail struct {
	Shard          string `json:"shard"`
	Algorithm      string `json:"algorithm"`
	Pairs          int64  `json:"pairs"`
	Signature      string `json:"signature"` // hex, same encoding as the merged one
	ElapsedNs      int64  `json:"elapsedNs"`
	Restages       int64  `json:"restages,omitempty"`
	StreamProbes   int64  `json:"streamProbes,omitempty"`
	Renegotiations int64  `json:"renegotiations,omitempty"`
	PeakTableBytes int64  `json:"peakTableBytes,omitempty"`
	TempFiles      int64  `json:"tempFiles,omitempty"`
}

// grantGrower adapts the admission controller to the store's mid-join
// renegotiation interface: growth requests charge the shared budget
// without waiting (and without jumping queued joins), give-backs release
// into it.
type grantGrower struct{ adm *Admission }

func (g grantGrower) TryGrow(bytes int64) bool { return g.adm.TryAcquire(bytes) }
func (g grantGrower) GiveBack(bytes int64)     { g.adm.Release(bytes) }

// executable maps wire names onto the store's runnable algorithms.
// index-nl and index-merge parse unconditionally; the store rejects
// them with a client error when it has no persistent indexes.
func parseAlgorithm(name string) (join.Algorithm, bool) {
	switch name {
	case "nested-loops":
		return join.NestedLoops, true
	case "sort-merge":
		return join.SortMerge, true
	case "grace":
		return join.Grace, true
	case "hybrid-hash":
		return join.HybridHash, true
	case "index-nl":
		return join.IndexNL, true
	case "index-merge":
		return join.IndexMerge, true
	}
	return 0, false
}

func (s *Server) handleJoin(rw http.ResponseWriter, r *http.Request) {
	s.inc("join_requests_total")
	// Register with the drain waiter before anything else: once past
	// this point the request — including its admission wait and any
	// join goroutine it spawns — is visible to Drain's inflight.Wait,
	// so Drain cannot return (and the caller cannot unmap the db) while
	// this request might still read it.
	if !s.beginRequest() {
		s.inc("rejected_draining")
		writeError(rw, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	defer s.inflight.Done()

	var req JoinRequest
	if r.Body != nil {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			s.inc("bad_requests")
			writeError(rw, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
			return
		}
	}
	// K sizes real per-partition bucket state in Grace/hybrid-hash
	// (D·K index slices plus D·K temp files), entirely outside the
	// memory grant the admission controller charges — so an absurd wire
	// value must be rejected here, not trusted. More buckets than R
	// objects can never help; mstore additionally clamps K to the
	// per-partition reference count.
	if maxK := s.store.CountR(); req.K < 0 || req.K > maxK {
		s.inc("bad_requests")
		writeError(rw, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("k=%d out of range [0..%d]", req.K, maxK))
		return
	}
	grant := req.MemBytes
	if grant <= 0 {
		grant = s.cfg.DefaultGrant
	}
	// Every partition goroutine needs at least one page of grant.
	if min := int64(s.d) * 4096; grant < min {
		grant = min
	}
	mrproc := grant / int64(s.d)

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMs > 0 && time.Duration(req.TimeoutMs)*time.Millisecond < timeout {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Plan: cost the request through the calibrated model. The planner
	// sees the exact store shape (measured skew and distinct counts; a
	// sharded store contributes its merged workload). On a sharded store
	// an auto request stays join.Auto — the router re-plans per shard
	// against each shard's own workload, and the merged-view choice below
	// is advisory (it still populates the response's plan table).
	resp := JoinResponse{MemBytes: grant, MRproc: mrproc}
	var alg join.Algorithm
	if req.Algorithm == "" || req.Algorithm == "auto" {
		choice, err := s.pl.ChooseFor(join.Request{
			Config: s.sim,
			Params: join.Params{Workload: s.w, MRproc: mrproc, K: req.K},
		})
		if err != nil {
			s.inc("errors_internal")
			writeError(rw, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		alg = choice.Best.Algorithm
		resp.PredictedNs = int64(choice.Best.Predicted)
		for _, c := range choice.Candidates {
			resp.Plan = append(resp.Plan, PlanEntry{Algorithm: c.Algorithm.String(), PredictedNs: int64(c.Predicted)})
		}
		s.inc("plan_choice_" + alg.String())
		if s.shardRunner != nil {
			alg = join.Auto
		}
	} else {
		var ok bool
		alg, ok = parseAlgorithm(req.Algorithm)
		if !ok {
			s.inc("bad_requests")
			writeError(rw, http.StatusBadRequest, "bad_request",
				"unknown algorithm "+strconv.Quote(req.Algorithm))
			return
		}
	}
	resp.Algorithm = alg.String()

	// Admission: charge the grant against the shared memory budget.
	admStart := time.Now()
	if err := s.adm.Acquire(ctx, grant); err != nil {
		s.rejectAdmission(rw, err)
		return
	}
	queueWait := time.Since(admStart)
	resp.QueueWaitNs = queueWait.Nanoseconds()
	s.observe("admission_wait", queueWait)

	// Execute on a child goroutine so client cancellation unblocks the
	// handler; an abandoned join keeps its grant until it finishes (the
	// memory truly is in use until then) and releases it on completion.
	type outcome struct {
		st      mstore.JoinStats
		details []mstore.ShardJoinStat
		err     error
	}
	tmp := filepath.Join(s.cfg.TmpDir, fmt.Sprintf("req%d", s.reqSeq.Add(1)))
	execStart := time.Now()
	done := make(chan outcome, 1)
	tel := &mstore.JoinTelemetry{}
	// The handler's own registration is still held here, so this Add
	// runs on a non-zero counter and needs no drainMu.
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		// The grant is held from execStart until the join finishes — even
		// when the client abandoned the request — so this is the honest
		// slot-recycling time the Retry-After hint needs. Releasing before
		// the done-send below means a caller who has our 200 in hand
		// observes the budget already balanced.
		released := false
		release := func() {
			if !released {
				released = true
				s.recordServiceTime(time.Since(execStart))
				s.adm.Release(grant)
			}
		}
		defer release()
		defer os.RemoveAll(tmp)
		defer func() {
			if v := recover(); v != nil {
				done <- outcome{err: fmt.Errorf("join panicked: %v", v)}
			}
		}()
		if s.preJoin != nil {
			s.preJoin()
		}
		// The join's morsels run on the server's shared pool: however
		// many joins are in flight, at most cfg.Workers goroutines
		// execute morsels (a sharded store substitutes its per-shard
		// pools). Passing ctx aborts the join between morsels when the
		// client abandons it, releasing the grant early. The grant
		// charged at admission is the join's probe-memory bound
		// (MemGrant), and a join that outgrows it renegotiates against
		// the same shared budget through the controller.
		jr := mstore.JoinRequest{
			Algorithm: alg, MRproc: mrproc, K: req.K, TmpDir: tmp,
			MemGrant: grant, Telemetry: tel, Negotiator: grantGrower{s.adm},
			Pool: s.pool, Ctx: ctx,
		}
		var out outcome
		if s.shardRunner != nil {
			out.st, out.details, out.err = s.shardRunner.RunShards(jr)
		} else {
			out.st, out.err = s.store.Run(jr)
		}
		s.foldTelemetry(tel)
		release()
		done <- out
	}()

	select {
	case out := <-done:
		elapsed := time.Since(execStart)
		if out.err != nil {
			s.inc("errors_internal")
			writeError(rw, http.StatusInternalServerError, "internal", out.err.Error())
			return
		}
		s.inc("join_executed_" + alg.String())
		s.observe("join_latency_"+alg.String(), elapsed)
		resp.Pairs = out.st.Pairs
		resp.Signature = fmt.Sprintf("%016x", out.st.Signature)
		resp.ElapsedNs = elapsed.Nanoseconds()
		resp.Restages = tel.Restages.Load()
		resp.StreamProbes = tel.StreamProbes.Load()
		resp.Renegotiations = tel.Renegotiations.Load()
		resp.PeakTableBytes = tel.PeakTableBytes.Load()
		for _, det := range out.details {
			resp.Shards = append(resp.Shards, ShardJoinDetail{
				Shard: det.Shard, Algorithm: det.Algorithm,
				Pairs: det.Pairs, Signature: fmt.Sprintf("%016x", det.Signature),
				ElapsedNs: det.ElapsedNs, Restages: det.Restages,
				StreamProbes: det.StreamProbes, Renegotiations: det.Renegotiations,
				PeakTableBytes: det.PeakTableBytes, TempFiles: det.TempFiles,
			})
		}
		writeJSON(rw, http.StatusOK, resp)
	case <-ctx.Done():
		s.inc("join_abandoned")
		writeError(rw, http.StatusServiceUnavailable, "abandoned",
			"request abandoned mid-join: "+ctx.Err().Error())
	}
}

// foldTelemetry rolls one finished join's memory-adaptation counters
// into the server's /stats counters and peak gauge.
func (s *Server) foldTelemetry(tel *mstore.JoinTelemetry) {
	s.add("spill_restages_total", tel.Restages.Load())
	s.add("spill_restaged_refs_total", tel.RestagedRefs.Load())
	s.add("stream_probes_total", tel.StreamProbes.Load())
	s.add("grant_renegotiations_total", tel.Renegotiations.Load())
	s.add("grant_renegotiations_denied_total", tel.RenegotiationsDenied.Load())
	s.add("temp_relations_total", tel.TempFiles.Load())
	for {
		peak := tel.PeakTableBytes.Load()
		cur := s.peakTableBytes.Load()
		if peak <= cur || s.peakTableBytes.CompareAndSwap(cur, peak) {
			return
		}
	}
}

// recordServiceTime folds one admitted join's grant-holding time into
// the EWMA behind the Retry-After hint (α = 1/8; first sample seeds it).
func (s *Server) recordServiceTime(d time.Duration) {
	ns := d.Nanoseconds()
	for {
		old := s.meanServiceNs.Load()
		next := ns
		if old > 0 {
			next = old + (ns-old)/8
			if next <= 0 {
				next = 1
			}
		}
		if s.meanServiceNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterHintCap bounds the dynamic Retry-After hint: past 30s a
// client should treat the service as down, not politely spin.
const retryAfterHintCap = 30 * time.Second

// hintFor estimates how long a rejected client should back off given the
// current queue depth: roughly one mean admitted-service time per queued
// request ahead of it (the rate budget slots recycle at), clamped to
// [cfg.RetryAfter, 30s] — the configured value is the floor, not a
// constant.
func (s *Server) hintFor(queueDepth int) time.Duration {
	floor := s.cfg.RetryAfter
	if floor < time.Second {
		floor = time.Second
	}
	mean := time.Duration(s.meanServiceNs.Load())
	hint := time.Duration(queueDepth) * mean
	if hint < floor {
		hint = floor
	}
	if hint > retryAfterHintCap {
		hint = retryAfterHintCap
	}
	return hint
}

// retryAfterHint is hintFor at the live queue depth.
func (s *Server) retryAfterHint() time.Duration { return s.hintFor(s.adm.QueueDepth()) }

// rejectAdmission maps admission errors onto HTTP statuses: saturation
// and deadline expiry are retryable (429 with Retry-After), an
// over-budget grant is not (413).
func (s *Server) rejectAdmission(rw http.ResponseWriter, err error) {
	hint := s.retryAfterHint()
	switch {
	case errors.Is(err, ErrSaturated):
		s.inc("rejected_saturated")
		writeRetryError(rw, http.StatusTooManyRequests, "saturated", err.Error(), hint)
	case errors.Is(err, ErrGrantTooLarge):
		s.inc("rejected_too_large")
		writeError(rw, http.StatusRequestEntityTooLarge, "grant_too_large", err.Error())
	case errors.Is(err, ErrBadGrant):
		s.inc("bad_requests")
		writeError(rw, http.StatusBadRequest, "bad_request", err.Error())
	default:
		// Context cancellation or deadline while queued: the client may
		// retry once load subsides.
		s.inc("rejected_deadline")
		writeRetryError(rw, http.StatusTooManyRequests, "saturated",
			"admission wait aborted: "+err.Error(), hint)
	}
}

// LookupResponse is the wire form of one pointer dereference. Shard is
// the id of the shard that answered (sharded stores only) — (part,
// index) names an object on that shard, not a global coordinate.
type LookupResponse struct {
	RPart  int    `json:"rPart"`
	RIndex int    `json:"rIndex"`
	RID    uint64 `json:"rid"`
	SPart  uint32 `json:"sPart"`
	SIndex int    `json:"sIndex"`
	SWord  uint64 `json:"sWord"` // the S object's identity word
	Shard  string `json:"shard,omitempty"`
}

func (s *Server) handleLookup(rw http.ResponseWriter, r *http.Request) {
	s.inc("lookups_total")
	// Lookups dereference the mapping too, so they register with the
	// drain waiter for the same unmap-safety reason joins do. Their
	// drain rejections are counted apart from joins' so client-side
	// accounting can reconcile each endpoint exactly.
	if !s.beginRequest() {
		s.inc("lookups_rejected_draining")
		writeError(rw, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	defer s.inflight.Done()
	start := time.Now()
	part, err1 := strconv.Atoi(r.URL.Query().Get("part"))
	index, err2 := strconv.Atoi(r.URL.Query().Get("index"))
	if err1 != nil || err2 != nil {
		s.inc("lookups_bad_request")
		writeError(rw, http.StatusBadRequest, "bad_request", "need part=N and index=N")
		return
	}
	// Bounds are the store's to judge: a sharded store routes first and
	// validates (part, index) against the shard that owns the name, so a
	// part that is out of range globally is simply out of range on that
	// shard — the service no longer second-guesses with a global D.
	out, err := s.store.Lookup(part, index)
	switch {
	case errors.Is(err, mstore.ErrPartRange):
		s.inc("lookups_bad_request")
		writeError(rw, http.StatusBadRequest, "bad_request", err.Error())
		return
	case errors.Is(err, mstore.ErrIndexRange):
		s.inc("lookups_not_found")
		writeError(rw, http.StatusNotFound, "not_found", err.Error())
		return
	case err != nil:
		s.inc("lookups_failed")
		writeError(rw, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	s.inc("lookups_ok")
	s.observe("lookup_latency", time.Since(start))
	writeJSON(rw, http.StatusOK, LookupResponse{
		RPart: part, RIndex: index,
		RID: out.RID, SPart: out.SPart, SIndex: out.SIndex, SWord: out.SWord,
		Shard: out.Shard,
	})
}

// handleShardsList answers GET /v1/shards: the store's shard layout
// (empty for a single mapped database, whose kind says so).
func (s *Server) handleShardsList(rw http.ResponseWriter, r *http.Request) {
	st := s.store.Stats()
	writeJSON(rw, http.StatusOK, map[string]any{
		"kind":   st.Kind,
		"shards": st.Shards,
	})
}

// ShardAddRequest is the wire form of POST /v1/shards.
type ShardAddRequest struct {
	ID  string `json:"id"`
	Dir string `json:"dir"`
	D   int    `json:"d"`
}

func (s *Server) handleShardsAdd(rw http.ResponseWriter, r *http.Request) {
	if s.shardMgr == nil {
		writeError(rw, http.StatusConflict, "not_sharded",
			"store is a single database; shard management needs -shard-map")
		return
	}
	if !s.beginRequest() {
		writeError(rw, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	defer s.inflight.Done()
	var req ShardAddRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(rw, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
		return
	}
	if req.ID == "" || req.Dir == "" || req.D < 1 {
		writeError(rw, http.StatusBadRequest, "bad_request", "need id, dir, and d >= 1")
		return
	}
	if err := s.shardMgr.AddShard(req.ID, req.Dir, req.D); err != nil {
		writeError(rw, http.StatusConflict, "conflict", err.Error())
		return
	}
	s.inc("shard_adds_total")
	writeJSON(rw, http.StatusOK, map[string]any{"added": req.ID})
}

// handleShardsRemove answers DELETE /v1/shards/{id}: the shard leaves
// the membership immediately and the call blocks on its drain — joins
// and lookups in flight against the shard finish before its mapping is
// released. The request context (plus the server's request timeout)
// bounds the wait; a timed-out drain answers 504 and the shard stays
// mapped until shutdown.
func (s *Server) handleShardsRemove(rw http.ResponseWriter, r *http.Request) {
	if s.shardMgr == nil {
		writeError(rw, http.StatusConflict, "not_sharded",
			"store is a single database; shard management needs -shard-map")
		return
	}
	if !s.beginRequest() {
		writeError(rw, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	defer s.inflight.Done()
	id := r.PathValue("id")
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if err := s.shardMgr.RemoveShard(ctx, id); err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeError(rw, http.StatusGatewayTimeout, "drain_timeout", err.Error())
			return
		}
		writeError(rw, http.StatusNotFound, "not_found", err.Error())
		return
	}
	s.inc("shard_removes_total")
	writeJSON(rw, http.StatusOK, map[string]any{"removed": id})
}

// HistogramStats is the exported view of one latency histogram.
type HistogramStats struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"meanNs"`
	MinNs  int64 `json:"minNs"`
	MaxNs  int64 `json:"maxNs"`
	P50Ns  int64 `json:"p50Ns"`
	P90Ns  int64 `json:"p90Ns"`
	P99Ns  int64 `json:"p99Ns"`
}

// Stats is the /stats document.
type Stats struct {
	UptimeSec float64 `json:"uptimeSec"`
	Draining  bool    `json:"draining"`
	// DB describes the served store. Kind distinguishes a single mapped
	// database from a sharded router; the latter carries one entry per
	// live shard (its own counts, pool occupancy, and draining flag).
	DB        mstore.StoreStats `json:"db"`
	Admission AdmissionStats    `json:"admission"`
	// Pool is the shared morsel pool: occupancy (Busy/PeakBusy vs
	// Workers), morsel queue depth, and steal/executed counts.
	Pool exec.Stats `json:"pool"`
	// Gauges mirrors every gauge registered on the internal metrics
	// registry (the pool gauges today), read live at snapshot time.
	Gauges     map[string]float64        `json:"gauges"`
	Counters   map[string]int64          `json:"counters"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// StatsSnapshot assembles the /stats document (exported for tests and
// embedding).
func (s *Server) StatsSnapshot() Stats {
	st := Stats{
		UptimeSec:  time.Since(s.start).Seconds(),
		Draining:   s.draining.Load(),
		DB:         s.store.Stats(),
		Admission:  s.adm.Stats(),
		Pool:       s.pool.Stats(),
		Gauges:     s.reg.GaugeValues(),
		Counters:   make(map[string]int64),
		Histograms: make(map[string]HistogramStats),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, c := range s.counters {
		st.Counters[name] = c.Value()
	}
	for name, h := range s.hists {
		st.Histograms[name] = HistogramStats{
			Count:  h.Count(),
			MeanNs: int64(h.Mean()),
			MinNs:  int64(h.Min()),
			MaxNs:  int64(h.Max()),
			P50Ns:  int64(h.Quantile(0.5)),
			P90Ns:  int64(h.Quantile(0.9)),
			P99Ns:  int64(h.Quantile(0.99)),
		}
	}
	return st
}

func (s *Server) handleStats(rw http.ResponseWriter, r *http.Request) {
	writeJSON(rw, http.StatusOK, s.StatsSnapshot())
}

func (s *Server) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(rw, http.StatusServiceUnavailable,
			map[string]any{"status": "draining", "draining": true})
		return
	}
	writeJSON(rw, http.StatusOK, map[string]any{"status": "ok", "draining": false})
}

func writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
