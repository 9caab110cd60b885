// Command loadgen replays deterministic, seeded traffic against a live
// `mmdb serve` and reports client-side latency histograms, outcome
// accounting, and a client-vs-server counter reconciliation against
// /stats.
//
// Open-loop modes (poisson, burst) fire at a configured offered rate and
// measure latency from each request's intended send time — the
// coordinated-omission-safe discipline. Closed-loop mode runs N clients
// with exponential think time.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080/v1 [-mode poisson|burst|closed]
//	        [-rate RPS] [-duration 2s] [-seed 1] [-clients 8] [-think 5ms]
//	        [-burst 16] [-lookup-frac 0.5] [-zipf 1.2] [-algs auto,grace,...]
//	        [-retries 0] [-retry-cap 2s] [-membytes N] [-inflight 512]
//	        [-mix-name NAME] [-out BENCH_service.json] [-strict]
//	loadgen -validate BENCH_service.json
//
// -strict exits non-zero unless at least one request succeeded and the
// client/server reconciliation balanced exactly — the CI smoke contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"mmjoin/internal/loadgen"
)

func main() {
	addr := flag.String("addr", "", "live mmdb serve /v1 base URL, e.g. http://127.0.0.1:8080/v1")
	mode := flag.String("mode", "poisson", "arrival discipline: poisson, burst, closed")
	rate := flag.Float64("rate", 100, "open-loop offered load, requests/sec")
	duration := flag.Duration("duration", 2*time.Second, "run length")
	seed := flag.Int64("seed", 1, "schedule/key-sequence seed")
	clients := flag.Int("clients", 8, "closed-loop client count")
	think := flag.Duration("think", 5*time.Millisecond, "closed-loop mean think time")
	burst := flag.Int("burst", 16, "burst mode: requests per spike")
	lookupFrac := flag.Float64("lookup-frac", 0.5, "share of requests that are /lookup")
	zipf := flag.Float64("zipf", 1.2, "lookup key Zipf exponent (> 1)")
	algs := flag.String("algs", "", "comma-separated join algorithms (default auto+all four)")
	retries := flag.Int("retries", 0, "429 retries honoring Retry-After (capped)")
	retryCap := flag.Duration("retry-cap", 2*time.Second, "max honored Retry-After wait")
	memBytes := flag.Int64("membytes", 0, "per-join memory grant (0: server default)")
	inflight := flag.Int("inflight", 512, "open-loop max outstanding requests")
	timeout := flag.Duration("timeout", 0, "client-side per-attempt timeout (0: none; keeps reconciliation exact)")
	mixName := flag.String("mix-name", "cli", "mix name recorded in -out report")
	out := flag.String("out", "", "write a BENCH_service.json-shaped report for this run")
	strict := flag.Bool("strict", false, "exit non-zero unless completions > 0 and counters reconcile")
	validate := flag.String("validate", "", "validate an existing BENCH_service.json and exit")
	flag.Parse()

	if *validate != "" {
		if err := loadgen.ValidateFile(*validate); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: invalid report:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid %s report\n", *validate, loadgen.ReportSchema)
		return
	}
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -addr required (or -validate FILE)")
		os.Exit(2)
	}
	m, err := loadgen.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	var algList []string
	if *algs != "" {
		algList = strings.Split(*algs, ",")
	}
	cfg := loadgen.Config{
		BaseURL:  strings.TrimRight(*addr, "/"),
		Seed:     *seed,
		Duration: *duration,
		Mode:     m,
		Rate:     *rate, BurstSize: *burst,
		Clients: *clients, ThinkMean: *think,
		Mix: loadgen.Mix{
			LookupFraction: *lookupFrac, ZipfS: *zipf, JoinAlgs: algList,
		},
		MaxInflight: *inflight,
		MaxRetries:  *retries, RetryCap: *retryCap,
		Timeout:      *timeout,
		JoinMemBytes: *memBytes,
	}
	res, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	printResult(res)

	if *out != "" {
		pt := loadgen.Summarize(res)
		if m == loadgen.Closed {
			// A closed loop has no offered rate; record the achieved one.
			pt.OfferedRate = pt.AchievedRPS
		}
		rep := &loadgen.Report{
			Schema: loadgen.ReportSchema,
			Host:   loadgen.CurrentHost(),
			Seed:   *seed,
			DB:     loadgen.DBInfo{Objects: res.NR, D: res.D},
			Server: loadgen.ServerInfo{
				MemBudgetBytes: res.StatsAfter.Admission.BudgetBytes,
				MaxQueue:       res.StatsAfter.Admission.MaxQueue,
				Workers:        res.StatsAfter.Pool.Workers,
			},
			Note:  "single-run report from cmd/loadgen",
			Mixes: []loadgen.MixCurve{loadgen.MixCurveFor(*mixName, cfg, []loadgen.SweepPoint{pt})},
		}
		if err := rep.WriteFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *out)
	}

	if *strict {
		if res.OKCount() == 0 {
			fmt.Fprintln(os.Stderr, "loadgen: strict: no request succeeded")
			os.Exit(1)
		}
		if !res.Reconciliation.OK {
			fmt.Fprintln(os.Stderr, "loadgen: strict: client/server counters do not reconcile")
			os.Exit(1)
		}
	}
}

func printResult(res *loadgen.Result) {
	fmt.Printf("%s %v: sent %d, attempts %d (retries %d), 429-rate %.3f, wall %v\n",
		res.Config.Mode, res.Config.Duration, res.Sent, res.Attempts, res.Retries,
		res.Rate429(), res.Wall.Round(time.Millisecond))

	keys := make([]string, 0, len(res.Outcomes))
	for k := range res.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-22s %8d\n", k, res.Outcomes[k])
	}
	ok := res.MergedOK()
	if ok.Count() > 0 {
		fmt.Printf("  latency(ok): p50 %v  p90 %v  p99 %v  max %v\n",
			time.Duration(ok.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(ok.Quantile(0.9)).Round(time.Microsecond),
			time.Duration(ok.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(ok.Max()).Round(time.Microsecond))
	}
	if res.Reconciliation.OK {
		fmt.Println("  reconciliation: OK (client counts == /stats deltas)")
	} else {
		fmt.Println("  reconciliation: MISMATCH")
		for _, p := range res.Reconciliation.Problems {
			fmt.Println("   ", p)
		}
	}
}
