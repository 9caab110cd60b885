package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"mmjoin/internal/service"
)

// Check is one client-vs-server reconciliation equation.
type Check struct {
	Name   string `json:"name"`
	Client int64  `json:"client"`
	Server int64  `json:"server"`
}

// Reconciliation cross-checks the client's attempt-level accounting
// against the server's /stats counter deltas. When the client ran with
// no client-side timeout and was the server's only traffic source, every
// equation must balance exactly: each HTTP attempt the client made got a
// definite response, and each response class has exactly one server
// counter that admitted + rejected + timed-out accounting routed it to.
type Reconciliation struct {
	OK       bool     `json:"ok"`
	Checks   []Check  `json:"checks"`
	Problems []string `json:"problems,omitempty"`
}

// delta reads a counter's growth across the run.
func delta(before, after service.Stats, name string) int64 {
	return after.Counters[name] - before.Counters[name]
}

// Reconcile builds the reconciliation for one finished run.
func Reconcile(before, after service.Stats, res *Result) Reconciliation {
	res.mu.Lock()
	join := res.StatusByKind[KindJoin]
	lookup := res.StatusByKind[KindLookup]
	joinAttempts, lookupAttempts := int64(0), int64(0)
	for _, n := range join {
		joinAttempts += n
	}
	for _, n := range lookup {
		lookupAttempts += n
	}
	netErrs := res.NetErrors[KindJoin] + res.NetErrors[KindLookup]
	res.mu.Unlock()

	joinOKServer := int64(0)
	// Every executed join lands in a join_executed_* counter: single
	// stores resolve auto to a concrete algorithm first — index-nl or
	// index-merge on an indexed store — while a sharded store counts
	// planner-routed requests under join_executed_auto (each shard may
	// pick a different algorithm). Sum whatever the server reports.
	for name := range after.Counters {
		if strings.HasPrefix(name, "join_executed_") {
			joinOKServer += delta(before, after, name)
		}
	}
	rec := Reconciliation{Checks: []Check{
		{"join attempts == join_requests_total", joinAttempts, delta(before, after, "join_requests_total")},
		{"join 2xx == sum(join_executed_*)", join[200], joinOKServer},
		{"join 429 == rejected_saturated + rejected_deadline", join[429],
			delta(before, after, "rejected_saturated") + delta(before, after, "rejected_deadline")},
		{"join 400 == bad_requests", join[400], delta(before, after, "bad_requests")},
		{"join 413 == rejected_too_large", join[413], delta(before, after, "rejected_too_large")},
		{"join 503 == rejected_draining + join_abandoned", join[503],
			delta(before, after, "rejected_draining") + delta(before, after, "join_abandoned")},
		{"join 500 == errors_internal", join[500], delta(before, after, "errors_internal")},
		{"lookup attempts == lookups_total", lookupAttempts, delta(before, after, "lookups_total")},
		{"lookup 2xx == lookups_ok", lookup[200], delta(before, after, "lookups_ok")},
		{"lookup 400 == lookups_bad_request", lookup[400], delta(before, after, "lookups_bad_request")},
		{"lookup 404 == lookups_not_found", lookup[404], delta(before, after, "lookups_not_found")},
		{"lookup 500 == lookups_failed", lookup[500], delta(before, after, "lookups_failed")},
		{"lookup 503 == lookups_rejected_draining", lookup[503], delta(before, after, "lookups_rejected_draining")},
	}}
	rec.OK = true
	for _, c := range rec.Checks {
		if c.Client != c.Server {
			rec.OK = false
			rec.Problems = append(rec.Problems,
				fmt.Sprintf("%s: client %d != server %d", c.Name, c.Client, c.Server))
		}
	}
	if netErrs > 0 {
		rec.OK = false
		rec.Problems = append(rec.Problems, fmt.Sprintf(
			"%d transport errors: some attempts may or may not have reached the server, counts are advisory", netErrs))
	}
	if p := delta(before, after, "panics_recovered"); p != 0 {
		rec.OK = false
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d handler panics recovered during the run", p))
	}
	return rec
}

// SweepPoint summarizes one offered-load point of a sweep — one sample
// of the p99-vs-offered-load and 429-rate-vs-offered-load curves.
type SweepPoint struct {
	OfferedRate float64 `json:"offered_rate_rps"`
	DurationSec float64 `json:"duration_sec"`
	Sent        int64   `json:"sent"`
	Attempts    int64   `json:"attempts"`
	Retries     int64   `json:"retries"`
	OK          int64   `json:"ok"`
	Throttled   int64   `json:"throttled"`   // final-outcome 429s
	Unavailable int64   `json:"unavailable"` // final-outcome 503s
	Errors      int64   `json:"errors"`      // 4xx/5xx others + net errors
	Rate429     float64 `json:"rate_429"`    // 429 responses / attempts

	// Latency of successful requests, measured from the intended send
	// time in open-loop mode (coordinated-omission-safe).
	P50Ns int64 `json:"p50_ns"`
	P90Ns int64 `json:"p90_ns"`
	P99Ns int64 `json:"p99_ns"`
	MaxNs int64 `json:"max_ns"`
	// Per-endpoint p99 over successes.
	JoinP99Ns   int64 `json:"join_p99_ns"`
	LookupP99Ns int64 `json:"lookup_p99_ns"`

	// AchievedRPS is completed-OK per wall second.
	AchievedRPS float64 `json:"achieved_rps"`
	Reconciled  bool    `json:"reconciled"`
}

// Summarize reduces one run to its sweep point.
func Summarize(res *Result) SweepPoint {
	ok := res.MergedOK()
	pt := SweepPoint{
		OfferedRate: res.Config.Rate,
		DurationSec: res.Config.Duration.Seconds(),
		Sent:        res.Sent,
		Attempts:    res.Attempts,
		Retries:     res.Retries,
		OK:          res.OKCount(),
		Throttled:   res.Outcomes["join.throttled"] + res.Outcomes["lookup.throttled"],
		Unavailable: res.Outcomes["join.unavailable"] + res.Outcomes["lookup.unavailable"],
		Rate429:     res.Rate429(),
		P50Ns:       int64(ok.Quantile(0.50)),
		P90Ns:       int64(ok.Quantile(0.90)),
		P99Ns:       int64(ok.Quantile(0.99)),
		MaxNs:       int64(ok.Max()),
		JoinP99Ns:   int64(res.Latency(KindJoin, OutcomeOK).Quantile(0.99)),
		LookupP99Ns: int64(res.Latency(KindLookup, OutcomeOK).Quantile(0.99)),
		Reconciled:  res.Reconciliation.OK,
	}
	pt.Errors = pt.Sent - pt.OK - pt.Throttled - pt.Unavailable
	if s := res.Wall.Seconds(); s > 0 {
		pt.AchievedRPS = float64(pt.OK) / s
	}
	return pt
}

// RunSweep executes the same mix at each offered rate in turn, returning
// one curve point per rate. Points run back-to-back against the same
// server; each point's reconciliation brackets only its own traffic.
func RunSweep(ctx context.Context, base Config, rates []float64) ([]SweepPoint, []*Result, error) {
	if base.Mode == Closed {
		return nil, nil, fmt.Errorf("loadgen: sweeps are open-loop (offered load is the x-axis)")
	}
	var pts []SweepPoint
	var results []*Result
	for _, rate := range rates {
		cfg := base
		cfg.Rate = rate
		res, err := Run(ctx, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("loadgen: sweep point rate=%g: %w", rate, err)
		}
		pts = append(pts, Summarize(res))
		results = append(results, res)
	}
	return pts, results, nil
}

// ReportSchema versions BENCH_service.json.
const ReportSchema = "mmjoin-bench-service/v1"

// Host stamps the report with the machine it was measured on — latency
// curves are only comparable against the same CPU budget.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CurrentHost describes the running machine.
func CurrentHost() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// MixCurve is one traffic mix's offered-load sweep.
type MixCurve struct {
	Name           string       `json:"name"`
	Mode           string       `json:"mode"`
	LookupFraction float64      `json:"lookup_fraction"`
	ZipfS          float64      `json:"zipf_s"`
	JoinAlgs       []string     `json:"join_algs"`
	MaxRetries     int          `json:"max_retries"`
	Points         []SweepPoint `json:"points"`
}

// DBInfo describes the served database.
type DBInfo struct {
	Objects int `json:"objects"`
	D       int `json:"d"`
}

// ServerInfo records the admission knobs the curves were measured under.
type ServerInfo struct {
	MemBudgetBytes int64 `json:"mem_budget_bytes"`
	MaxQueue       int   `json:"max_queue"`
	Workers        int   `json:"workers"`
}

// Report is the BENCH_service.json document: SLO curves (p99 and 429
// rate vs offered load) per traffic mix, with the host, seed, and server
// knobs recorded so regressions are diffed honestly.
type Report struct {
	Schema string     `json:"schema"`
	Host   Host       `json:"host"`
	Seed   int64      `json:"seed"`
	DB     DBInfo     `json:"db"`
	Server ServerInfo `json:"server"`
	Note   string     `json:"note,omitempty"`
	Mixes  []MixCurve `json:"mixes"`
}

// Validate checks the report's structural soundness: schema and host
// recorded, at least one mix with at least one point, and every point
// internally consistent (positive offered rate, ordered quantiles,
// 429 rate within [0,1]).
func (r *Report) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.Host.GoVersion == "" || r.Host.NumCPU < 1 || r.Host.GOMAXPROCS < 1 {
		return fmt.Errorf("host info missing: %+v", r.Host)
	}
	if r.DB.Objects < 1 || r.DB.D < 1 {
		return fmt.Errorf("db info missing: %+v", r.DB)
	}
	if len(r.Mixes) == 0 {
		return fmt.Errorf("no mixes")
	}
	for _, m := range r.Mixes {
		if m.Name == "" {
			return fmt.Errorf("unnamed mix")
		}
		if len(m.Points) == 0 {
			return fmt.Errorf("mix %q has no points", m.Name)
		}
		for i, p := range m.Points {
			if p.OfferedRate <= 0 {
				return fmt.Errorf("mix %q point %d: offered rate %g", m.Name, i, p.OfferedRate)
			}
			if p.Sent < 0 || p.Attempts < p.Sent {
				return fmt.Errorf("mix %q point %d: attempts %d < sent %d", m.Name, i, p.Attempts, p.Sent)
			}
			if !(p.P50Ns <= p.P90Ns && p.P90Ns <= p.P99Ns) {
				return fmt.Errorf("mix %q point %d: quantiles unordered p50=%d p90=%d p99=%d",
					m.Name, i, p.P50Ns, p.P90Ns, p.P99Ns)
			}
			if p.Rate429 < 0 || p.Rate429 > 1 {
				return fmt.Errorf("mix %q point %d: rate_429 %g outside [0,1]", m.Name, i, p.Rate429)
			}
		}
	}
	return nil
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("loadgen: refusing to write invalid report: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ValidateFile parses and validates a written report — the CI smoke's
// schema check.
func ValidateFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("loadgen: %s: %w", path, err)
	}
	return r.Validate()
}

// MixCurveFor assembles one mix's curve metadata from its config.
func MixCurveFor(name string, cfg Config, pts []SweepPoint) MixCurve {
	return MixCurve{
		Name:           name,
		Mode:           cfg.Mode.String(),
		LookupFraction: cfg.Mix.LookupFraction,
		ZipfS:          cfg.Mix.ZipfS,
		JoinAlgs:       cfg.Mix.JoinAlgs,
		MaxRetries:     cfg.MaxRetries,
		Points:         pts,
	}
}
