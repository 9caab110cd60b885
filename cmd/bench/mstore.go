package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"mmjoin/internal/join"
	"mmjoin/internal/mstore"
)

// The mstore panel measures the real (wall-clock) joins over a mapped
// database at several morsel-pool sizes and writes BENCH_mstore.json.
// Alongside the timings it checks the determinism contract: JoinStats
// (Pairs and Signature) must be bit-identical at every worker count.
//
// The workers axis is {1, D, GOMAXPROCS}: 1 is the sequential floor, D
// is what the paper's thread-per-partition structure would use, and
// GOMAXPROCS is the morsel pool's default. The speedup of GOMAXPROCS
// over D is the payoff of decoupling CPU parallelism from data layout —
// bounded by the host's CPUs, which is why the report embeds them.

type mstorePoint struct {
	Workers int   `json:"workers"`
	Runs    int   `json:"runs"`
	BestNs  int64 `json:"best_ns"`
}

type mstoreAlgo struct {
	Algorithm string `json:"algorithm"`
	Pairs     int64  `json:"pairs"`
	// Signature is identical at every workers value (verified).
	Signature string        `json:"signature"`
	Points    []mstorePoint `json:"points"`
	// SpeedupMaxVsD is best_ns at workers=D over best_ns at
	// workers=GOMAXPROCS (>1 means the pool beats thread-per-partition).
	SpeedupMaxVsD float64 `json:"speedup_gomaxprocs_vs_d"`
}

type mstoreReport struct {
	Schema     string       `json:"schema"`
	Host       hostInfo     `json:"host"`
	Objects    int          `json:"objects"`
	D          int          `json:"d"`
	ObjSize    int          `json:"obj_size"`
	MRproc     int64        `json:"mrproc_bytes"`
	Note       string       `json:"note"`
	Algorithms []mstoreAlgo `json:"algorithms"`
	// SkewPanel measures the grant-bounded probes under one hot key
	// owning half of R: an undersized grant vs the unbounded baseline.
	SkewPanel *skewPanel `json:"zipf_skew,omitempty"`
	// Kernels measures the probe-stage kernel in isolation (ns-per-pair,
	// allocs-per-pair, best-effort cache counters) — the regression
	// surface the CI smoke gates on.
	Kernels *kernelsPanel `json:"kernels,omitempty"`
	// Shard measures the scatter-gather router against the single store
	// it was split from (see cmd/bench/shard.go).
	Shard *shardPanel `json:"shard,omitempty"`
	// Index measures the index-accelerated join paths against the four
	// kernels on freshly indexed databases, with bulk-load amortization
	// and the planner's pick per ratio (see cmd/bench/index.go).
	Index *indexPanel `json:"index,omitempty"`
}

// perfCounts is one best-effort hardware-counter measurement. Source
// names the facility that produced the numbers ("perf_event_open",
// "getrusage-minflt", "unavailable"); counters are only comparable
// within one source, which is why it is recorded alongside them.
type perfCounts struct {
	Source      string
	CacheRefs   int64
	CacheMisses int64
}

// kernelProbePoint is one probe-kernel measurement over a materialized
// bucket set. Kernel and Batch key the point in the baseline gate;
// older reports also hold "map" and narrower "flat" points.
type kernelProbePoint struct {
	Kernel        string  `json:"kernel"` // "flat"
	Batch         int     `json:"batch,omitempty"`
	Runs          int     `json:"runs"`
	BestNs        int64   `json:"best_ns"`
	NsPerPair     float64 `json:"ns_per_pair"`
	AllocsPerPair float64 `json:"allocs_per_pair"`
	// Per-pair cache counters, present only when the host exposes a
	// hardware source (see counter_source).
	CacheRefsPerPair   float64 `json:"cache_refs_per_pair,omitempty"`
	CacheMissesPerPair float64 `json:"cache_misses_per_pair,omitempty"`
}

type kernelsPanel struct {
	Objects       int    `json:"objects"`
	D             int    `json:"d"`
	Buckets       int    `json:"buckets"`
	PairsPerPass  int64  `json:"pairs_per_pass"`
	CounterSource string `json:"counter_source"`
	// Probe isolates the probe stage on materialized bucket files.
	Probe []kernelProbePoint `json:"probe"`
}

// skewRun is one skewed join under one memory regime.
type skewRun struct {
	Algorithm      string `json:"algorithm"`
	GrantBytes     int64  `json:"grant_bytes"` // -1: unbounded
	BestNs         int64  `json:"best_ns"`
	Restages       int64  `json:"restages"`
	RestagedRefs   int64  `json:"restaged_refs"`
	StreamProbes   int64  `json:"stream_probes"`
	PeakTableBytes int64  `json:"peak_table_bytes"`
	SignatureMatch bool   `json:"signature_match"` // vs the unbounded baseline
}

type skewPanel struct {
	HotFraction float64   `json:"hot_fraction"` // share of R on the one hot key
	GrantBytes  int64     `json:"grant_bytes"`  // the undersized grant
	Runs        []skewRun `json:"runs"`
}

// runMstorePanel creates a throwaway database and times NL/SM/Grace
// across the workers axis, writing the JSON baseline to out.
func runMstorePanel(objects, d, runs, kernelObjects int, out string) error {
	dir, err := os.MkdirTemp("", "mmjoin-bench-mstore")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := mstore.CreateDB(filepath.Join(dir, "db"), d, objects, objects, 64, 42)
	if err != nil {
		return err
	}
	defer db.Close()
	want := db.ExpectedStats()

	workerAxis := []int{1, d, runtime.GOMAXPROCS(0)}
	slices.Sort(workerAxis)
	workerAxis = slices.Compact(workerAxis)

	const mrproc = 1 << 20
	r := mstoreReport{
		Schema:  "mmjoin-bench-mstore/v1",
		Host:    currentHost(),
		Objects: objects, D: d, ObjSize: 64, MRproc: mrproc,
		Note: fmt.Sprintf("wall-clock best of %d; speedup is bounded by the host CPUs "+
			"(num_cpu=%d) — on a single-CPU host the workers curve is flat by construction",
			runs, runtime.NumCPU()),
	}

	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace} {
		a := mstoreAlgo{
			Algorithm: alg.String(),
			Pairs:     want.Pairs,
			Signature: fmt.Sprintf("%016x", want.Signature),
		}
		bestAt := map[int]int64{}
		for _, w := range workerAxis {
			best := int64(1<<63 - 1)
			for run := 0; run < runs; run++ {
				tmp := filepath.Join(dir, fmt.Sprintf("tmp-%s-%d-%d", alg, w, run))
				start := time.Now()
				st, err := db.Run(mstore.JoinRequest{
					Algorithm: alg, MRproc: mrproc, Workers: w, TmpDir: tmp,
				})
				el := time.Since(start).Nanoseconds()
				if err != nil {
					return fmt.Errorf("%v workers=%d: %w", alg, w, err)
				}
				if st != want {
					return fmt.Errorf("%v workers=%d: stats %+v, want %+v (determinism violated)", alg, w, st, want)
				}
				best = min(best, el)
			}
			bestAt[w] = best
			a.Points = append(a.Points, mstorePoint{Workers: w, Runs: runs, BestNs: best})
		}
		a.SpeedupMaxVsD = round2(float64(bestAt[d]) / float64(bestAt[runtime.GOMAXPROCS(0)]))
		r.Algorithms = append(r.Algorithms, a)
		fmt.Printf("mstore %-12s: ", alg)
		for _, pt := range a.Points {
			fmt.Printf("w=%d %.0fms  ", pt.Workers, time.Duration(pt.BestNs).Seconds()*1000)
		}
		fmt.Printf("speedup(GOMAXPROCS vs D) %.2fx\n", a.SpeedupMaxVsD)
	}

	sp, err := runSkewPanel(db, dir, runs)
	if err != nil {
		return err
	}
	r.SkewPanel = sp

	kp, err := runKernelsPanel(kernelObjects, d, runs)
	if err != nil {
		return err
	}
	r.Kernels = kp

	ip, err := runIndexPanel(d, runs)
	if err != nil {
		return err
	}
	r.Index = ip

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&r); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("mstore baseline written to %s\n", out)
	return nil
}

// runSkewPanel rewrites the bench database into the hot-key worst case
// (one S object at the end of partition 0 owns half of R, beyond any
// hybrid resident prefix) and times Grace/hybrid-hash under a
// deliberately undersized grant against the unbounded baseline. The
// panel records the adaptation telemetry — restages, streamed probes,
// and the measured peak of counted probe-table bytes, which must stay
// within the grant.
func runSkewPanel(db *mstore.DB, dir string, runs int) (*skewPanel, error) {
	hotIdx := db.S[0].Count() - 1
	hot := mstore.SPtr{Part: 0, Off: db.S[0].PtrAt(hotIdx)}
	n, u := 0, 0
	for _, ri := range db.R {
		for x := 0; x < ri.Count(); x++ {
			if n%2 == 0 {
				mstore.EncodeSPtr(ri.Object(x), hot)
			} else {
				part := u % db.D
				rel := db.S[part]
				mstore.EncodeSPtr(ri.Object(x), mstore.SPtr{
					Part: uint32(part), Off: rel.PtrAt(u % rel.Count()),
				})
				u++
			}
			n++
		}
	}
	want := db.ExpectedStats()

	const grant = 64 << 10
	panel := &skewPanel{HotFraction: 0.5, GrantBytes: grant}
	for _, alg := range []join.Algorithm{join.Grace, join.HybridHash} {
		for _, g := range []int64{-1, grant} {
			best := int64(1<<63 - 1)
			var tel *mstore.JoinTelemetry
			match := true
			for run := 0; run < runs; run++ {
				t := &mstore.JoinTelemetry{}
				tmp := filepath.Join(dir, fmt.Sprintf("skew-%s-%d-%d", alg, g, run))
				start := time.Now()
				st, err := db.Run(mstore.JoinRequest{
					Algorithm: alg, MRproc: 1 << 20, K: 8,
					MemGrant: g, Telemetry: t, TmpDir: tmp,
				})
				el := time.Since(start).Nanoseconds()
				if err != nil {
					return nil, fmt.Errorf("skew %v grant=%d: %w", alg, g, err)
				}
				match = match && st == want
				if el < best {
					best, tel = el, t
				}
			}
			run := skewRun{
				Algorithm: alg.String(), GrantBytes: g, BestNs: best,
				Restages:       tel.Restages.Load(),
				RestagedRefs:   tel.RestagedRefs.Load(),
				StreamProbes:   tel.StreamProbes.Load(),
				PeakTableBytes: tel.PeakTableBytes.Load(),
				SignatureMatch: match,
			}
			if !match {
				return nil, fmt.Errorf("skew %v grant=%d: signature diverged from baseline", alg, g)
			}
			if g > 0 && run.PeakTableBytes > g {
				return nil, fmt.Errorf("skew %v: peak table bytes %d exceed grant %d", alg, run.PeakTableBytes, g)
			}
			panel.Runs = append(panel.Runs, run)
			fmt.Printf("mstore skew %-12s grant=%-8d: %.0fms restages=%d streams=%d peak=%dB\n",
				alg, g, time.Duration(best).Seconds()*1000, run.Restages, run.StreamProbes, run.PeakTableBytes)
		}
	}
	return panel, nil
}

// runKernelsPanel measures the probe-stage kernel in isolation at the
// conformance panel size: Grace buckets are materialized once, then
// probed repeatedly through the flat arena-backed table — the
// single-threaded ns-per-pair the CI gate compares.
func runKernelsPanel(objects, d, runs int) (*kernelsPanel, error) {
	dir, err := os.MkdirTemp("", "mmjoin-bench-kernels")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	db, err := mstore.CreateDB(filepath.Join(dir, "db"), d, objects, objects, 64, 42)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	want := db.ExpectedStats()

	const buckets = 64
	bs, err := db.BuildGraceBuckets(dir, buckets)
	if err != nil {
		return nil, err
	}
	defer bs.Close()

	panel := &kernelsPanel{
		Objects: objects, D: d, Buckets: bs.Buckets(), PairsPerPass: want.Pairs,
	}
	if st := bs.ProbeFlat(); st != want { // warm the arena, check once
		return nil, fmt.Errorf("kernels flat: stats %+v, want %+v", st, want)
	}
	best := int64(1<<63 - 1)
	for run := 0; run < runs; run++ {
		start := time.Now()
		st := bs.ProbeFlat()
		el := time.Since(start).Nanoseconds()
		if st != want {
			return nil, fmt.Errorf("kernels flat: stats diverged mid-measurement")
		}
		best = min(best, el)
	}
	pairs := float64(want.Pairs)
	allocs := testing.AllocsPerRun(1, func() { bs.ProbeFlat() })
	counts := measureCounters(func() { bs.ProbeFlat() })
	panel.CounterSource = counts.Source
	pt := kernelProbePoint{
		Kernel: "flat", Batch: mstore.GatherWidth, Runs: runs, BestNs: best,
		NsPerPair:     round2(float64(best) / pairs),
		AllocsPerPair: allocs / pairs,
	}
	if counts.Source == "perf_event_open" {
		pt.CacheRefsPerPair = round2(float64(counts.CacheRefs) / pairs)
		pt.CacheMissesPerPair = round2(float64(counts.CacheMisses) / pairs)
	}
	panel.Probe = append(panel.Probe, pt)
	fmt.Printf("mstore kernels probe flat batch=%d: %6.2f ns/pair  %8.5f allocs/pair  (%s)\n",
		pt.Batch, pt.NsPerPair, pt.AllocsPerPair, counts.Source)
	return panel, nil
}

// checkKernelsBaseline compares freshly measured probe points against
// the checked-in baseline report, failing on a >20% ns-per-pair
// regression in any configuration present in both — the CI smoke gate.
func checkKernelsBaseline(path string, cur *kernelsPanel) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old mstoreReport
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if old.Kernels == nil {
		return fmt.Errorf("baseline %s has no kernels panel", path)
	}
	base := map[string]float64{}
	for _, pt := range old.Kernels.Probe {
		base[fmt.Sprintf("%s/%d", pt.Kernel, pt.Batch)] = pt.NsPerPair
	}
	compared := 0
	for _, pt := range cur.Probe {
		b, ok := base[fmt.Sprintf("%s/%d", pt.Kernel, pt.Batch)]
		if !ok || b <= 0 {
			continue
		}
		compared++
		if pt.NsPerPair > 1.2*b {
			return fmt.Errorf("kernel %s batch=%d regressed: %.2f ns/pair vs baseline %.2f (>20%%)",
				pt.Kernel, pt.Batch, pt.NsPerPair, b)
		}
	}
	if compared == 0 {
		return fmt.Errorf("baseline %s shares no probe point with this run", path)
	}
	return nil
}
