package mstore

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
)

// TestKernelSignatureGrid is the property grid gating the kernels:
// every algorithm × worker count {1, 2, GOMAXPROCS} × corpus {uniform,
// Zipf hot-key} must produce Pairs/Signature bit-identical to the
// store's independently computed ground truth.
func TestKernelSignatureGrid(t *testing.T) {
	algs := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash}
	corpora := map[string]func(*testing.T, int) *DB{
		"uniform": makeDB,
		"zipf":    zipfDB,
	}
	workers := []int{1, 2, runtime.GOMAXPROCS(0)}
	for name, mk := range corpora {
		t.Run(name, func(t *testing.T) {
			db := mk(t, 6000)
			want := db.ExpectedStats()
			for _, w := range workers {
				for _, alg := range algs {
					got, err := db.Run(JoinRequest{Algorithm: alg, K: 40, Workers: w})
					if err != nil {
						t.Fatalf("%v w=%d: %v", alg, w, err)
					}
					if got != want {
						t.Fatalf("%v w=%d: got %+v want %+v", alg, w, got, want)
					}
				}
			}
		})
	}
}

// TestKernelBucketCap drives the bucketed joins past the bucket cap: an
// explicit K=600 and a K the MRproc rule derives above 256, both
// clamped, across worker counts and corpora, with and without a grant
// tight enough to restage. The scatter is one pass into at most 256
// buckets per S partition, so an unbounded join creates at most D·256
// temp files; the scatter does not depend on the grant, so that count
// is also the granted leg's first pass, whose restages keep the peak
// within the grant.
func TestKernelBucketCap(t *testing.T) {
	// Tables of buckets holding 7 or more references exceed it.
	const grant = 256
	// 1200 references per S partition: uncapped at K=600, most of the
	// 600 buckets would be non-empty, well past 256 files per partition.
	capDB := func() *DB {
		db, err := CreateDB(filepath.Join(t.TempDir(), "db"), 2, 2400, 2400, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	corpora := map[string]*DB{"uniform": capDB(), "zipf": hotKeyHalf(capDB())}
	for name, db := range corpora {
		want := db.ExpectedStats()
		// 1.2·|R|/D·r/MRproc = 1.2·1200·64/256 = 360 buckets before the cap.
		ks := []JoinRequest{{K: 600}, {MRproc: 256}}
		for _, alg := range []join.Algorithm{join.Grace, join.HybridHash} {
			for _, kreq := range ks {
				for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
					for _, memGrant := range []int64{-1, grant} {
						tel := &JoinTelemetry{}
						req := kreq
						req.Algorithm, req.Workers, req.MemGrant, req.Telemetry = alg, w, memGrant, tel
						req.ResidentFrac = -1
						at := fmt.Sprintf("%s %v K=%d MRproc=%d w=%d grant=%d",
							name, alg, kreq.K, kreq.MRproc, w, memGrant)
						got, err := db.Run(req)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						if got != want {
							t.Fatalf("%s: got %+v want %+v", at, got, want)
						}
						if passes := tel.RadixPasses.Load(); passes != 1 {
							t.Fatalf("%s: %d scatter passes", at, passes)
						}
						if memGrant < 0 {
							if r := tel.Restages.Load(); r != 0 {
								t.Fatalf("%s: %d restages without a grant", at, r)
							}
							if files := tel.TempFiles.Load(); files > int64(db.D*256) {
								t.Fatalf("%s: %d first-pass temp files exceed D·256", at, files)
							}
							continue
						}
						if tel.Restages.Load() == 0 {
							t.Fatalf("%s: nothing restaged under the grant", at)
						}
						if peak := tel.PeakTableBytes.Load(); peak > grant {
							t.Fatalf("%s: peak %d exceeds grant %d", at, peak, grant)
						}
					}
				}
			}
		}
	}
}

// TestKernelMultiPassDeep drives the bucketed joins at K=300, the depth
// that once took two or three radix passes, on both corpora. K clamps
// to MaxBuckets and the scatter is a single pass straight into the
// buckets; the fold must still match ground truth.
func TestKernelMultiPassDeep(t *testing.T) {
	for _, mk := range []func(*testing.T, int) *DB{makeDB, zipfDB} {
		db := mk(t, 4000)
		want := db.ExpectedStats()
		for _, alg := range []join.Algorithm{join.Grace, join.HybridHash} {
			for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
				tel := &JoinTelemetry{}
				got, err := db.Run(JoinRequest{
					Algorithm: alg,
					K:         300,
					Workers:   w,
					Telemetry: tel,
				})
				if err != nil {
					t.Fatalf("%v w=%d: %v", alg, w, err)
				}
				if got != want {
					t.Fatalf("%v w=%d: got %+v want %+v", alg, w, got, want)
				}
				if passes := tel.RadixPasses.Load(); passes != 1 {
					t.Fatalf("%v w=%d: %d scatter passes", alg, w, passes)
				}
			}
		}
	}
}

// TestKernelGridUnderGrant re-runs the bucketed joins with a grant
// small enough to force restaging and hot-key streaming, so the batched
// kernels are also exercised on the spill paths.
func TestKernelGridUnderGrant(t *testing.T) {
	db := zipfDB(t, 6000)
	want := db.ExpectedStats()
	for _, alg := range []join.Algorithm{join.Grace, join.HybridHash} {
		for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
			var tel JoinTelemetry
			got, err := db.Run(JoinRequest{
				Algorithm: alg,
				K:         40,
				Workers:   w,
				MemGrant:  32 << 10,
				Telemetry: &tel,
			})
			if err != nil {
				t.Fatalf("%v w=%d: %v", alg, w, err)
			}
			if got != want {
				t.Fatalf("%v w=%d: got %+v want %+v", alg, w, got, want)
			}
			if peak, grant := tel.PeakTableBytes.Load(), int64(32<<10); peak > grant {
				t.Fatalf("%v w=%d: peak %d exceeds grant %d", alg, w, peak, grant)
			}
		}
	}
}

// TestKernelFlatMatchesExpected probes materialized bucket files through
// the flat table and checks the fold against ground truth.
func TestKernelFlatMatchesExpected(t *testing.T) {
	for _, mk := range []func(*testing.T, int) *DB{makeDB, zipfDB} {
		db := mk(t, 5000)
		want := db.ExpectedStats()
		bs, err := db.BuildGraceBuckets(t.TempDir(), 37)
		if err != nil {
			t.Fatal(err)
		}
		if got := bs.ProbeFlat(); got != want {
			t.Fatalf("ProbeFlat: got %+v want %+v", got, want)
		}
		bs.Close()
	}
}

// TestKernelProbeFlatZeroAllocs: after the first pass has grown the
// arena to its high-water capacity, the flat probe path allocates
// nothing — the steady state the per-bucket Go map could never reach.
func TestKernelProbeFlatZeroAllocs(t *testing.T) {
	db := makeDB(t, 5000)
	bs, err := db.BuildGraceBuckets(t.TempDir(), 37)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	bs.ProbeFlat() // warm the arena
	if allocs := testing.AllocsPerRun(5, func() { bs.ProbeFlat() }); allocs != 0 {
		t.Fatalf("steady-state ProbeFlat allocates %.1f times per pass", allocs)
	}
}

// TestKernelRadixPlan pins the bucket plan the executor and the cost
// model agree on: one scatter pass into min(K, maxK()) buckets, where
// maxK() is one bucket per expected partition reference capped at
// MaxBuckets, whether K is explicit or derived from MRproc.
func TestKernelRadixPlan(t *testing.T) {
	big := makeDB(t, 4000)  // 1000 references per partition
	small := makeDB(t, 400) // 100 references per partition
	cases := []struct {
		db     *DB
		k      int
		mrproc int64
		want   int
	}{
		{big, 1, 0, 1},
		{big, 256, 0, 256},
		{big, 257, 0, 256},
		{big, 300, 0, 256},
		{big, 65537, 0, 256},
		{big, 0, 0, 1},
		// ⌈1.2·1000·64/MRproc⌉ buckets before the cap.
		{big, 0, 64000, 2},
		{big, 0, 1024, 75},
		{big, 0, 256, 256},
		{small, 300, 0, 100},
		{small, 0, 256, 30},
		{small, 0, 64, 100},
	}
	for _, c := range cases {
		req := JoinRequest{Algorithm: join.Grace, K: c.k, MRproc: c.mrproc}
		if err := req.withDefaults(c.db); err != nil {
			t.Fatal(err)
		}
		if req.K != c.want {
			t.Errorf("|R|/D=%d K=%d MRproc=%d: %d buckets, want %d",
				c.db.CountR()/c.db.D, c.k, c.mrproc, req.K, c.want)
		}
	}
}

// TestKernelTableSlots pins the load-factor geometry tableBytesFor and
// the grant accounting are built on.
func TestKernelTableSlots(t *testing.T) {
	cases := []struct {
		refs  int
		slots int64
	}{
		{0, 8}, {1, 8}, {6, 8}, {7, 16}, {12, 16}, {13, 32},
		{3072, 4096}, {3073, 8192}, {4000, 8192},
	}
	for _, c := range cases {
		if got := tableSlots(c.refs); got != c.slots {
			t.Errorf("tableSlots(%d) = %d, want %d", c.refs, got, c.slots)
		}
		if bytes := tableBytesFor(c.refs); bytes < int64(c.refs)*16 {
			t.Errorf("tableBytesFor(%d) = %d below the per-ref floor", c.refs, bytes)
		}
	}
}

// TestKernelRangeTasksNoEmptyMorsels pins the rangeTasks contract: no
// tasks for empty inputs, exactly ⌈n/morselObjs⌉ otherwise, every range
// non-empty and the union covering [0, n) exactly once.
func TestKernelRangeTasksNoEmptyMorsels(t *testing.T) {
	for _, n := range []int{-5, 0, 1, morselObjs - 1, morselObjs, morselObjs + 1, 3 * morselObjs} {
		var covered int
		tasks := rangeTasks(nil, n, func(_, lo, hi int) error {
			if hi <= lo {
				t.Fatalf("n=%d: empty morsel [%d, %d)", n, lo, hi)
			}
			covered += hi - lo
			return nil
		})
		if want := morselCount(n); len(tasks) != want {
			t.Fatalf("n=%d: %d tasks, want %d", n, len(tasks), want)
		}
		for _, task := range tasks {
			if err := task(0); err != nil {
				t.Fatal(err)
			}
		}
		if want := max(n, 0); covered != want {
			t.Fatalf("n=%d: covered %d objects", n, covered)
		}
	}
}

// TestKernelSharedPoolGrid runs sort-merge and Grace at the bucket cap
// (K=300 clamps to MaxBuckets) on one shared pool to confirm the
// pipelined sort-merge job and the bucket probe tasks coexist with
// other joins on the same workers.
func TestKernelSharedPoolGrid(t *testing.T) {
	db := makeDB(t, 6000)
	want := db.ExpectedStats()
	p := exec.NewPool(4)
	defer p.Close()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		alg := []join.Algorithm{join.SortMerge, join.Grace}[i%2]
		go func() {
			got, err := db.Run(JoinRequest{
				Algorithm: alg,
				K:         300,
				TmpDir:    t.TempDir(),
				Pool:      p,
			})
			if err == nil && got != want {
				err = errTestMismatch
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errTestMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "join stats mismatch" }
