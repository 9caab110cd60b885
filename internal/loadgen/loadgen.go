// Package loadgen is the closed-loop/open-loop traffic generator for
// `mmdb serve`: it replays deterministic, seeded mixes of /lookup
// (Zipf-skewed keys) and /join (all four algorithms plus planner auto)
// against a live server and records client-side latency histograms per
// endpoint×outcome, 429/outcome accounting, and a client-vs-server
// counter reconciliation against /stats.
//
// Two disciplines are supported. Open-loop arrivals (Poisson or burst)
// fire at a configured offered rate regardless of completions, and
// latency is measured from each request's *intended* send time — the
// coordinated-omission-safe measurement: a stalled server inflates the
// recorded latency of the requests that queued behind the stall rather
// than silently thinning the sample. Closed-loop mode runs N concurrent
// clients with exponential think time, the classic interactive-user
// model, where latency is measured from the actual send.
//
// Sweeping the offered rate across several points turns the service's
// p99 and 429 rate into curves against offered load — the SLO-style
// regression surface tracked in BENCH_service.json.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mmjoin/internal/metrics"
	"mmjoin/internal/service"
	"mmjoin/internal/sim"
)

// Mode selects the arrival discipline.
type Mode int

const (
	// OpenPoisson fires requests with exponential inter-arrival gaps at
	// Rate requests/sec, independent of completions.
	OpenPoisson Mode = iota
	// OpenBurst fires BurstSize back-to-back requests every
	// BurstSize/Rate seconds — the same offered rate, delivered in
	// spikes that stress the admission queue.
	OpenBurst
	// Closed runs Clients concurrent clients, each looping
	// request → response → think.
	Closed
)

func (m Mode) String() string {
	switch m {
	case OpenPoisson:
		return "open-poisson"
	case OpenBurst:
		return "open-burst"
	case Closed:
		return "closed"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode maps the CLI names onto modes.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "poisson", "open-poisson":
		return OpenPoisson, nil
	case "burst", "open-burst":
		return OpenBurst, nil
	case "closed":
		return Closed, nil
	}
	return 0, fmt.Errorf("loadgen: unknown mode %q (poisson, burst, closed)", s)
}

// DefaultJoinAlgs is the join blend when none is configured: the planner
// choice plus every explicit algorithm, uniformly weighted.
var DefaultJoinAlgs = []string{"auto", "nested-loops", "sort-merge", "grace", "hybrid-hash"}

// Mix describes the traffic blend.
type Mix struct {
	// LookupFraction is the share of requests that are /lookup
	// (the rest are /join).
	LookupFraction float64
	// ZipfS is the lookup key skew exponent (must be > 1; default 1.2).
	// Rank 0 — the hottest key — maps to R partition 0, index 0.
	ZipfS float64
	// JoinAlgs are the join algorithm names drawn uniformly
	// (default DefaultJoinAlgs).
	JoinAlgs []string
}

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the live server's /v1 root, e.g.
	// "http://127.0.0.1:8080/v1".
	BaseURL string
	// Seed makes the request schedule and key sequence deterministic.
	Seed int64
	// Duration bounds the schedule horizon (open-loop) or run time
	// (closed-loop). Default 2s.
	Duration time.Duration

	Mode Mode
	// Rate is the open-loop offered load in requests/sec.
	Rate float64
	// BurstSize is the OpenBurst spike size (default 16).
	BurstSize int
	// Clients is the closed-loop concurrency (default 8).
	Clients int
	// ThinkMean is the closed-loop mean exponential think time
	// (default 5ms).
	ThinkMean time.Duration

	Mix Mix

	// MaxInflight caps outstanding open-loop requests (default 512).
	// Hitting the cap delays dispatch, and the delay is charged to the
	// affected requests' latency — never hidden.
	MaxInflight int
	// MaxRetries is how many times a 429 is retried after honoring its
	// Retry-After hint (default 0: count the 429 and move on).
	MaxRetries int
	// RetryCap bounds the honored Retry-After wait (default 2s) so a
	// 30s hint cannot stall a short run.
	RetryCap time.Duration
	// Timeout is the per-attempt client timeout. Zero (the default)
	// means no client-side deadline — every request then ends with a
	// definite server response, which is what makes client/server
	// counter reconciliation exact. Client-abandoned requests are
	// counted as net errors and make the reconciliation advisory.
	Timeout time.Duration
	// JoinMemBytes is the per-join memory grant (0: server default).
	JoinMemBytes int64
	// JoinTimeoutMs shortens the server-side per-join timeout (0: server
	// default).
	JoinTimeoutMs int64
}

func (cfg *Config) withDefaults() error {
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Mode != Closed && cfg.Rate <= 0 {
		return fmt.Errorf("loadgen: open-loop mode needs Rate > 0, got %g", cfg.Rate)
	}
	if cfg.BurstSize <= 0 {
		cfg.BurstSize = 16
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.ThinkMean <= 0 {
		cfg.ThinkMean = 5 * time.Millisecond
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 512
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 2 * time.Second
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.Mix.ZipfS == 0 {
		cfg.Mix.ZipfS = 1.2
	}
	if cfg.Mix.ZipfS <= 1 {
		return fmt.Errorf("loadgen: ZipfS must be > 1, got %g", cfg.Mix.ZipfS)
	}
	if cfg.Mix.LookupFraction < 0 || cfg.Mix.LookupFraction > 1 {
		return fmt.Errorf("loadgen: LookupFraction %g outside [0,1]", cfg.Mix.LookupFraction)
	}
	if len(cfg.Mix.JoinAlgs) == 0 {
		cfg.Mix.JoinAlgs = DefaultJoinAlgs
	}
	return nil
}

// Outcome classifies one request's final disposition.
type Outcome int

const (
	OutcomeOK          Outcome = iota // 2xx
	OutcomeBadRequest                 // 400
	OutcomeNotFound                   // 404
	OutcomeTooLarge                   // 413
	OutcomeThrottled                  // 429 after exhausting retries
	OutcomeUnavailable                // 503 (draining, or abandoned mid-join on server timeout)
	OutcomeServerError                // any other 5xx
	OutcomeNetError                   // transport failure or client-side timeout
)

var outcomeNames = [...]string{
	"ok", "bad_request", "not_found", "too_large",
	"throttled", "unavailable", "server_error", "net_error",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// classify maps an HTTP status onto an outcome.
func classify(status int) Outcome {
	switch {
	case status >= 200 && status < 300:
		return OutcomeOK
	case status == http.StatusBadRequest:
		return OutcomeBadRequest
	case status == http.StatusNotFound:
		return OutcomeNotFound
	case status == http.StatusRequestEntityTooLarge:
		return OutcomeTooLarge
	case status == http.StatusTooManyRequests:
		return OutcomeThrottled
	case status == http.StatusServiceUnavailable:
		return OutcomeUnavailable
	default:
		return OutcomeServerError
	}
}

// Result is one run's client-side accounting.
type Result struct {
	Config  Config
	Started time.Time
	Wall    time.Duration
	D, NR   int // served database shape, read from /stats

	// Sent counts scheduled requests dispatched; Attempts counts HTTP
	// requests including retries; Retries counts honored-Retry-After
	// resends; Resp429 counts 429 responses at the attempt level
	// (a retried-then-admitted request still contributes here).
	Sent, Attempts, Retries, Resp429 int64

	// Outcomes is the final disposition per request, keyed
	// "endpoint.outcome" (e.g. "join.ok", "lookup.throttled").
	Outcomes map[string]int64
	// StatusByKind counts attempt-level HTTP statuses per endpoint —
	// the side reconciled against the server's /stats counters.
	StatusByKind map[Kind]map[int]int64
	// NetErrors counts transport failures per endpoint.
	NetErrors map[Kind]int64

	// JoinResults counts distinct (pairs, signature) values over OK
	// joins — ground-truth spot checks key on there being exactly one.
	JoinResults map[string]int64

	// StatsBefore/StatsAfter bracket the run.
	StatsBefore, StatsAfter service.Stats
	Reconciliation          Reconciliation

	mu    sync.Mutex
	hists map[string]*metrics.Histogram // latency per "endpoint.outcome"
}

// Latency returns the latency histogram for "endpoint.outcome" (nil if
// no such request finished). Open-loop latencies are measured from the
// intended send time.
func (r *Result) Latency(kind Kind, o Outcome) *metrics.Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[kind.String()+"."+o.String()]
}

// MergedOK returns one histogram over every successful request
// (lookup and join 2xx responses together).
func (r *Result) MergedOK() *metrics.Histogram {
	m := new(metrics.Histogram)
	m.Merge(r.Latency(KindLookup, OutcomeOK))
	m.Merge(r.Latency(KindJoin, OutcomeOK))
	return m
}

// OKCount is the number of requests that ended 2xx.
func (r *Result) OKCount() int64 {
	return r.Outcomes["join.ok"] + r.Outcomes["lookup.ok"]
}

// Rate429 is the fraction of attempts answered 429.
func (r *Result) Rate429() float64 {
	if r.Attempts == 0 {
		return 0
	}
	return float64(r.Resp429) / float64(r.Attempts)
}

func (r *Result) record(kind Kind, o Outcome, lat time.Duration) {
	key := kind.String() + "." + o.String()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Outcomes[key]++
	h, ok := r.hists[key]
	if !ok {
		h = new(metrics.Histogram)
		r.hists[key] = h
	}
	h.Observe(sim.Time(lat))
}

func (r *Result) countStatus(kind Kind, status int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.StatusByKind[kind]
	if !ok {
		m = make(map[int]int64)
		r.StatusByKind[kind] = m
	}
	m[status]++
}

// runner executes one configured run.
type runner struct {
	cfg    Config
	client *http.Client
	res    *Result
}

// Run executes one load run against the configured server and returns
// the client-side accounting, including the /stats reconciliation.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	tr := &http.Transport{
		MaxIdleConns:        cfg.MaxInflight + cfg.Clients,
		MaxIdleConnsPerHost: cfg.MaxInflight + cfg.Clients,
	}
	defer tr.CloseIdleConnections()
	r := &runner{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.Timeout, Transport: tr},
		res: &Result{
			Config:       cfg,
			Outcomes:     make(map[string]int64),
			StatusByKind: make(map[Kind]map[int]int64),
			NetErrors:    make(map[Kind]int64),
			JoinResults:  make(map[string]int64),
			hists:        make(map[string]*metrics.Histogram),
		},
	}
	before, err := r.fetchStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: /stats before run: %w", err)
	}
	r.res.StatsBefore = before
	r.res.D, r.res.NR = before.DB.D, before.DB.NR
	if before.DB.Kind == "sharded" && len(before.DB.Shards) > 0 {
		// A sharded store replicates S but partitions R: each lookup is
		// routed to exactly one shard and validated against that shard's
		// local partition sizes. Bound keys by the smallest shard so
		// keyToRef cannot address rows past a routed shard's floor.
		minNR := before.DB.Shards[0].NR
		for _, sh := range before.DB.Shards[1:] {
			minNR = min(minNR, sh.NR)
		}
		r.res.NR = minNR
	}
	if r.res.NR < 1 || r.res.D < 1 {
		return nil, fmt.Errorf("loadgen: server reports empty database (NR=%d D=%d)", r.res.NR, r.res.D)
	}

	r.res.Started = time.Now()
	switch cfg.Mode {
	case OpenPoisson, OpenBurst:
		err = r.runOpen(ctx)
	case Closed:
		err = r.runClosed(ctx)
	default:
		err = fmt.Errorf("loadgen: unknown mode %d", cfg.Mode)
	}
	r.res.Wall = time.Since(r.res.Started)
	if err != nil {
		return nil, err
	}
	after, err := r.fetchStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: /stats after run: %w", err)
	}
	r.res.StatsAfter = after
	r.res.Reconciliation = Reconcile(before, after, r.res)
	return r.res, nil
}

// runOpen dispatches the precomputed schedule: every op gets its own
// goroutine that sleeps until the intended send time, acquires an
// inflight slot, and measures latency from the intended time — queueing
// behind the slot cap or a stalled server is charged to the request.
func (r *runner) runOpen(ctx context.Context) error {
	ops, err := BuildSchedule(r.cfg, r.res.NR)
	if err != nil {
		return err
	}
	sem := make(chan struct{}, r.cfg.MaxInflight)
	var wg sync.WaitGroup
	start := r.res.Started
	for i := range ops {
		op := ops[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			intended := start.Add(op.At)
			if wait := time.Until(intended); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return
				}
			}
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-sem }()
			r.do(ctx, op, intended)
		}()
	}
	wg.Wait()
	return nil
}

// runClosed runs Clients deterministic request→think loops until the
// duration elapses. Latency is measured from the actual send (a closed
// loop has no intended schedule to fall behind).
func (r *runner) runClosed(ctx context.Context) error {
	var wg sync.WaitGroup
	start := r.res.Started
	for c := 0; c < r.cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := clientStream(r.cfg, r.res.NR, c)
			for time.Since(start) < r.cfg.Duration && ctx.Err() == nil {
				op, think := next()
				r.do(ctx, op, time.Now())
				if think > 0 {
					t := time.NewTimer(think)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return nil
}

// do sends one op, honoring capped Retry-After retries, and records its
// final outcome with latency measured from intended.
func (r *runner) do(ctx context.Context, op Op, intended time.Time) {
	atomic.AddInt64(&r.res.Sent, 1)
	for attempt := 0; ; attempt++ {
		atomic.AddInt64(&r.res.Attempts, 1)
		status, retryAfter, err := r.send(ctx, op)
		if err != nil {
			r.res.mu.Lock()
			r.res.NetErrors[op.Kind]++
			r.res.mu.Unlock()
			r.res.record(op.Kind, OutcomeNetError, time.Since(intended))
			return
		}
		r.res.countStatus(op.Kind, status)
		if status == http.StatusTooManyRequests {
			atomic.AddInt64(&r.res.Resp429, 1)
			if attempt < r.cfg.MaxRetries && ctx.Err() == nil {
				atomic.AddInt64(&r.res.Retries, 1)
				wait := retryAfter
				if wait <= 0 {
					wait = 100 * time.Millisecond
				}
				if wait > r.cfg.RetryCap {
					wait = r.cfg.RetryCap
				}
				t := time.NewTimer(wait)
				select {
				case <-t.C:
					continue
				case <-ctx.Done():
					t.Stop()
				}
			}
		}
		r.res.record(op.Kind, classify(status), time.Since(intended))
		return
	}
}

// send performs one HTTP attempt and returns the status and any
// Retry-After hint.
func (r *runner) send(ctx context.Context, op Op) (status int, retryAfter time.Duration, err error) {
	var req *http.Request
	switch op.Kind {
	case KindLookup:
		part, index := r.keyToRef(op.Key)
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/lookup?part=%d&index=%d", r.cfg.BaseURL, part, index), nil)
	case KindJoin:
		body, _ := json.Marshal(service.JoinRequest{
			Algorithm: op.Alg, MemBytes: r.cfg.JoinMemBytes, TimeoutMs: r.cfg.JoinTimeoutMs,
		})
		req, err = http.NewRequestWithContext(ctx, http.MethodPost,
			r.cfg.BaseURL+"/join", bytes.NewReader(body))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return 0, 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if sec := resp.Header.Get("Retry-After"); sec != "" {
		if n, perr := strconv.Atoi(sec); perr == nil && n > 0 {
			retryAfter = time.Duration(n) * time.Second
		}
	}
	if op.Kind == KindJoin && resp.StatusCode == http.StatusOK {
		var jr service.JoinResponse
		if derr := json.NewDecoder(resp.Body).Decode(&jr); derr == nil {
			key := fmt.Sprintf("%d/%s", jr.Pairs, jr.Signature)
			r.res.mu.Lock()
			r.res.JoinResults[key]++
			r.res.mu.Unlock()
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, retryAfter, nil
}

// keyToRef maps a Zipf-ranked global key onto a (partition, index)
// lookup target. Rank 0 — the hottest — lands on R0[0]; ranks spread
// round-robin across partitions, and the index stays below the smallest
// per-partition floor so skewed partition splits cannot 404.
func (r *runner) keyToRef(key int) (part, index int) {
	perPart := r.res.NR / r.res.D
	if perPart < 1 {
		return 0, 0
	}
	if key < 0 {
		key = 0
	}
	return key % r.res.D, (key / r.res.D) % perPart
}

// fetchStats snapshots the server's /stats document.
func (r *runner) fetchStats(ctx context.Context) (service.Stats, error) {
	var st service.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.BaseURL+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
