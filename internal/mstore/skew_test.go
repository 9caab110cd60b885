package mstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
)

// zipfDB rewrites the db's R pointers into a Zipf-like worst case: one
// hot S key (partition 0, index 0) owns half of all references, the
// other half spreads deterministically over every partition. This is
// the workload the planner's memory estimate gets most wrong — one
// Grace bucket holds ~50% of R no matter what K says.
func zipfDB(t *testing.T, nr int) *DB {
	t.Helper()
	return hotKeyHalf(makeDB(t, nr))
}

// hotKeyHalf applies zipfDB's rewrite to an existing db.
func hotKeyHalf(db *DB) *DB {
	hot := SPtr{Part: 0, Off: db.S[0].PtrAt(0)}
	n, u := 0, 0
	for _, ri := range db.R {
		for x := 0; x < ri.Count(); x++ {
			if n%2 == 0 {
				EncodeSPtr(ri.Object(x), hot)
			} else {
				part := u % db.D
				rel := db.S[part]
				EncodeSPtr(ri.Object(x), SPtr{
					Part: uint32(part), Off: rel.PtrAt(u % rel.Count()),
				})
				u++
			}
			n++
		}
	}
	return db
}

// TestSkewGrantBoundedGraceHybrid is the tentpole invariant: under a
// hot-key workload with a deliberately undersized grant, Grace and
// hybrid-hash complete with bit-identical Pairs/Signature vs the
// unbounded baseline, while the measured peak of counted probe-table
// bytes never exceeds the grant. The hot bucket's table alone
// (tableBytesFor(4000) ≈ 158 KiB: 8192 slots · 12 B + 4000 refs · 16 B)
// cannot fit the 32 KiB grant, so the join must restage it and
// ultimately stream the hot key.
func TestSkewGrantBoundedGraceHybrid(t *testing.T) {
	db := zipfDB(t, 8000)
	want := db.ExpectedStats()
	const grant = 32 << 10

	for _, alg := range []join.Algorithm{join.Grace, join.HybridHash} {
		for _, w := range []int{1, 4} {
			base, err := db.Run(JoinRequest{
				Algorithm: alg, K: 4, ResidentFrac: -1, Workers: w, MemGrant: -1,
				TmpDir: filepath.Join(t.TempDir(), "base"),
			})
			if err != nil {
				t.Fatalf("%v unbounded: %v", alg, err)
			}
			if base != want {
				t.Fatalf("%v unbounded: %+v, want %+v", alg, base, want)
			}

			tel := &JoinTelemetry{}
			st, err := db.Run(JoinRequest{
				Algorithm: alg, K: 4, ResidentFrac: -1, Workers: w,
				MemGrant: grant, Telemetry: tel,
				TmpDir: filepath.Join(t.TempDir(), "bounded"),
			})
			if err != nil {
				t.Fatalf("%v bounded: %v", alg, err)
			}
			if st != want {
				t.Fatalf("%v bounded workers=%d: %+v, want %+v", alg, w, st, want)
			}
			if peak := tel.PeakTableBytes.Load(); peak > grant {
				t.Fatalf("%v workers=%d: peak table bytes %d exceed grant %d", alg, w, peak, grant)
			}
			if tel.Restages.Load() < 1 {
				t.Errorf("%v workers=%d: oversized bucket never restaged", alg, w)
			}
			if tel.StreamProbes.Load() < 1 {
				t.Errorf("%v workers=%d: hot-key bucket never streamed", alg, w)
			}
		}
	}
}

// TestSkewZipfCorpusAllAlgorithms is the conformance corpus: the
// hot-key workload across all four algorithms × worker counts, each
// result bit-identical to the pointer-walk ground truth. Under -race it
// additionally exercises concurrent appends, restages, and the shared
// memory limiter.
func TestSkewZipfCorpusAllAlgorithms(t *testing.T) {
	db := zipfDB(t, 6000)
	want := db.ExpectedStats()
	algs := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash}
	for _, alg := range algs {
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			tel := &JoinTelemetry{}
			st, err := db.Run(JoinRequest{
				Algorithm: alg, K: 3, ResidentFrac: 0.25, Workers: w,
				MemGrant: 48 << 10, Telemetry: tel,
				TmpDir: filepath.Join(t.TempDir(), fmt.Sprintf("%v-%d", alg, w)),
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", alg, w, err)
			}
			if st != want {
				t.Fatalf("%v workers=%d: %+v, want %+v", alg, w, st, want)
			}
			if peak := tel.PeakTableBytes.Load(); peak > 48<<10 {
				t.Fatalf("%v workers=%d: peak %d over grant", alg, w, peak)
			}
		}
	}
}

// TestSkewRenegotiationGrowsGrant: a negotiator with spare memory lets
// the oversized bucket's table build in place of restaging, and every
// renegotiated byte is given back when the join returns.
func TestSkewRenegotiationGrowsGrant(t *testing.T) {
	db := zipfDB(t, 4000)
	want := db.ExpectedStats()
	neg := &fakeNegotiator{spare: 1 << 20}
	tel := &JoinTelemetry{}
	st, err := db.Run(JoinRequest{
		Algorithm: join.Grace, K: 4, MemGrant: 16 << 10,
		Telemetry: tel, Negotiator: neg,
		TmpDir: filepath.Join(t.TempDir(), "tmp"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if tel.Renegotiations.Load() < 1 {
		t.Fatal("under-granted join never renegotiated")
	}
	if tel.Restages.Load() != 0 {
		t.Errorf("restaged %d times despite available renegotiation", tel.Restages.Load())
	}
	neg.mu.Lock()
	defer neg.mu.Unlock()
	if neg.out != 0 {
		t.Fatalf("%d renegotiated bytes never given back", neg.out)
	}
	if peak := tel.PeakTableBytes.Load(); peak > 16<<10+tel.ExtraGrantBytes.Load() {
		t.Fatalf("peak %d exceeds grant+extra %d", peak, 16<<10+tel.ExtraGrantBytes.Load())
	}
}

// fakeNegotiator grants growth from a fixed spare pool.
type fakeNegotiator struct {
	mu    sync.Mutex
	spare int64
	out   int64
}

func (f *fakeNegotiator) TryGrow(bytes int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if bytes > f.spare-f.out {
		return false
	}
	f.out += bytes
	return true
}

func (f *fakeNegotiator) GiveBack(bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.out -= bytes
}

// TestSkewConcurrentDefaultTmpDirGrace is the regression for the shared
// default temp directory: two concurrent Grace joins with TmpDir left
// empty used to write the same <db>/tmp/gr_j_b.seg files and corrupt
// each other; per-call MkdirTemp keeps them disjoint and exact.
func TestSkewConcurrentDefaultTmpDirGrace(t *testing.T) {
	db := zipfDB(t, 4000)
	want := db.ExpectedStats()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := db.Run(JoinRequest{Algorithm: join.Grace, K: 4})
			if err != nil {
				t.Errorf("concurrent grace: %v", err)
				return
			}
			if st != want {
				t.Errorf("concurrent grace: %+v, want %+v", st, want)
			}
		}()
	}
	wg.Wait()
	// The per-call directories are removed on return.
	ents, err := os.ReadDir(db.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Fatalf("per-call temp dir %s left behind", e.Name())
		}
	}
}

// TestSkewEmptyBucketsCreateNoFiles: with every reference in partition
// 0, the other partitions' buckets are measured empty and must not
// materialize segment files (the former eager D×K creation opened all
// of them).
func TestSkewEmptyBucketsCreateNoFiles(t *testing.T) {
	db := skewDB(t, 4000) // every reference → partition 0
	want := db.ExpectedStats()
	const k = 8
	tel := &JoinTelemetry{}
	tmp := filepath.Join(t.TempDir(), "tmp")
	st, err := db.Run(JoinRequest{
		Algorithm: join.Grace, K: k, MemGrant: -1, Telemetry: tel, TmpDir: tmp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if files := tel.TempFiles.Load(); files > k {
		t.Fatalf("%d temp files for %d non-empty buckets (eager creation would make %d)",
			files, k, db.D*k)
	}
	ents, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d bucket files left behind in %s", len(ents), tmp)
	}
}

// TestRankBucketBoundaries pins the int64 bucket math: the former
// int-typed idx*k product overflows 32-bit ints at realistic sizes
// (10M-object partition × k=512 ≈ 2^32.3).
func TestRankBucketBoundaries(t *testing.T) {
	cases := []struct {
		idx, k, n int
		want      int
	}{
		{0, 4, 100, 0},
		{99, 4, 100, 3},
		{0, 1, 1, 0},
		{math.MaxInt32 - 1, 1 << 20, math.MaxInt32, 1<<20 - 1},
		{math.MaxInt32 / 2, 1 << 20, math.MaxInt32, 1<<19 - 1},
		{10_000_000 - 1, 512, 10_000_000, 511},
		{0, 512, 10_000_000, 0},
	}
	for _, c := range cases {
		if got := rankBucket(c.idx, c.k, c.n); got != c.want {
			t.Errorf("rankBucket(%d, %d, %d) = %d, want %d", c.idx, c.k, c.n, got, c.want)
		}
	}
	// Monotone and in-range over a sweep.
	prev := 0
	for idx := 0; idx < 1000; idx++ {
		b := rankBucket(idx, 7, 1000)
		if b < prev || b < 0 || b >= 7 {
			t.Fatalf("rankBucket not monotone in range at idx=%d: %d after %d", idx, b, prev)
		}
		prev = b
	}
}

// TestSkewStreamProbeDegenerateGrant: a grant too small for even the
// streaming handle chunk still completes exactly (the pure-scan path).
func TestSkewStreamProbeDegenerateGrant(t *testing.T) {
	db := zipfDB(t, 2000)
	want := db.ExpectedStats()
	tel := &JoinTelemetry{}
	st, err := db.Run(JoinRequest{
		Algorithm: join.Grace, K: 2, MemGrant: 64, Telemetry: tel,
		TmpDir: filepath.Join(t.TempDir(), "tmp"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if peak := tel.PeakTableBytes.Load(); peak > 64 {
		t.Fatalf("peak %d over 64-byte grant", peak)
	}
}

// TestMemLimiterConcurrentReservations hammers one limiter from many
// goroutines and checks the accounting balances and the peak honors the
// budget.
func TestMemLimiterConcurrentReservations(t *testing.T) {
	tel := &JoinTelemetry{}
	lim := newMemLimiter(1000, nil, tel)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !lim.reserve(100) {
					t.Error("fitting reservation denied")
					return
				}
				lim.release(100)
			}
		}()
	}
	wg.Wait()
	if lim.used != 0 {
		t.Fatalf("leaked %d reserved bytes", lim.used)
	}
	if peak := tel.PeakTableBytes.Load(); peak > 1000 {
		t.Fatalf("peak %d over budget 1000", peak)
	}
	if lim.reserve(1001) {
		t.Fatal("impossible reservation accepted")
	}
	// An unbounded limiter accounts but never denies.
	free := newMemLimiter(0, nil, nil)
	if !free.reserve(1 << 40) {
		t.Fatal("unbounded limiter denied")
	}
	free.release(1 << 40)
}

// TestSkewExplicitTmpDirStillWorks: an explicit caller-unique TmpDir
// keeps working (and is the caller's to clean up).
func TestSkewExplicitTmpDirStillWorks(t *testing.T) {
	db := zipfDB(t, 1000)
	want := db.ExpectedStats()
	tmp := filepath.Join(t.TempDir(), "mine")
	st, err := db.Run(JoinRequest{Algorithm: join.HybridHash, K: 2, TmpDir: tmp})
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("explicit TmpDir removed behind the caller's back: %v", err)
	}
}

// TestSkewSharedPoolBoundedJoins: bounded skewed joins on one shared
// pool — restage recursion runs inline in probe tasks, so this must not
// deadlock the work-stealing pool — and results stay exact.
func TestSkewSharedPoolBoundedJoins(t *testing.T) {
	db := zipfDB(t, 4000)
	want := db.ExpectedStats()
	pool := exec.NewPool(2)
	defer pool.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, err := db.Run(JoinRequest{
				Algorithm: join.Grace, K: 4, MemGrant: 32 << 10, Pool: pool,
				TmpDir: filepath.Join(t.TempDir(), fmt.Sprintf("g%d", g)),
			})
			if err != nil {
				t.Errorf("join %d: %v", g, err)
				return
			}
			if st != want {
				t.Errorf("join %d: %+v, want %+v", g, st, want)
			}
		}(g)
	}
	wg.Wait()
}
