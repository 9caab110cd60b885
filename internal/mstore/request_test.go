package mstore

import (
	"path/filepath"
	"testing"

	"mmjoin/internal/join"
)

func testDB(t *testing.T, d, n int) *DB {
	t.Helper()
	db, err := CreateDB(filepath.Join(t.TempDir(), "db"), d, n, n, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestRunExecutesEveryRealAlgorithm(t *testing.T) {
	db := testDB(t, 3, 3000)
	want := db.ExpectedStats()
	for _, alg := range []join.Algorithm{
		join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash,
	} {
		st, err := db.Run(JoinRequest{Algorithm: alg, MRproc: 8 << 10})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if st != want {
			t.Errorf("%v: %+v, want %+v", alg, st, want)
		}
	}
}

func TestRunRejectsNonExecutablePlans(t *testing.T) {
	db := testDB(t, 2, 200)
	if _, err := db.Run(JoinRequest{Algorithm: join.TraditionalGrace}); err == nil {
		t.Error("TraditionalGrace accepted by the real store")
	}
	if _, err := db.Run(JoinRequest{Algorithm: join.Algorithm(42)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := db.Run(JoinRequest{Algorithm: join.Grace, MRproc: -1}); err == nil {
		t.Error("negative grant accepted")
	}
}

func TestRequestDerivesGraceParameters(t *testing.T) {
	db := testDB(t, 2, 2000)
	// K follows the simulator's rule K = ceil(fuzz*|RSi|*r/M) with
	// |RSi| = |R|/D: 1.2*1000*32/4096 = 9.375 -> 10.
	req := JoinRequest{Algorithm: join.Grace, MRproc: 4096}
	if err := req.withDefaults(db); err != nil {
		t.Fatal(err)
	}
	if req.K != 10 {
		t.Errorf("derived K = %d, want 10", req.K)
	}
	if req.Fuzz != 1.2 {
		t.Errorf("Fuzz = %g", req.Fuzz)
	}
	// TmpDir stays empty after defaulting: Run creates (and removes) a
	// per-call temp directory so concurrent default-TmpDir joins cannot
	// collide on the fixed bucket file names.
	if req.TmpDir != "" {
		t.Errorf("TmpDir defaulted to %q, want per-call MkdirTemp in Run", req.TmpDir)
	}
	// An ample grant collapses to one bucket; an explicit K wins.
	ample := JoinRequest{Algorithm: join.Grace, MRproc: 1 << 30}
	if err := ample.withDefaults(db); err != nil {
		t.Fatal(err)
	}
	if ample.K != 1 {
		t.Errorf("ample-memory K = %d, want 1", ample.K)
	}
	explicit := JoinRequest{Algorithm: join.Grace, MRproc: 4096, K: 3}
	if err := explicit.withDefaults(db); err != nil {
		t.Fatal(err)
	}
	if explicit.K != 3 {
		t.Errorf("explicit K overridden to %d", explicit.K)
	}
	// Hybrid-hash residency: the share of one S partition that fits.
	hh := JoinRequest{Algorithm: join.HybridHash, MRproc: 8000}
	if err := hh.withDefaults(db); err != nil {
		t.Fatal(err)
	}
	if want := 8000.0 / (1000 * 32); hh.ResidentFrac != want {
		t.Errorf("ResidentFrac = %g, want %g", hh.ResidentFrac, want)
	}
}

func TestWorkloadMirrorsStoredPointers(t *testing.T) {
	db := testDB(t, 3, 900)
	w, err := db.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if w.Spec.NR != db.CountR() || w.Spec.NS != db.CountS() || w.Spec.D != db.D {
		t.Fatalf("spec shape wrong: %+v", w.Spec)
	}
	if w.Spec.RSize != db.ObjSize || w.Spec.PtrSize != sptrBytes {
		t.Fatalf("spec sizes wrong: %+v", w.Spec)
	}
	for i, rel := range db.R {
		if len(w.Refs[i]) != rel.Count() {
			t.Fatalf("R%d: %d refs for %d objects", i, len(w.Refs[i]), rel.Count())
		}
		for x := 0; x < rel.Count(); x++ {
			ptr := DecodeSPtr(rel.Object(x))
			ref := w.Refs[i][x]
			if int32(ptr.Part) != ref.Part ||
				db.S[ptr.Part].PtrAt(int(ref.Index)) != ptr.Off {
				t.Fatalf("R%d[%d]: ref %+v does not round-trip to %+v", i, x, ref, ptr)
			}
		}
	}
	if skew := w.Skew(); skew < 1 || skew > 2 {
		t.Errorf("uniform db skew = %g", skew)
	}
}

// TestTempFilesCountedPerAlgorithm pins JoinTelemetry.TempFiles for each
// staging operator on a uniform store where every (R partition, S
// partition) pair and every bucket is non-empty: nested loops writes one
// RP<i,j> per off-partition pair, sort-merge one RS<j> and one SRT<j>
// per partition, and Grace/hybrid-hash one file per bucket.
func TestTempFilesCountedPerAlgorithm(t *testing.T) {
	db := makeDB(t, 4000)
	d, k := int64(db.D), int64(4)
	for alg, want := range map[join.Algorithm]int64{
		join.NestedLoops: d * (d - 1),
		join.SortMerge:   2 * d,
		join.Grace:       d * k,
		join.HybridHash:  d * k,
	} {
		tel := &JoinTelemetry{}
		if _, err := db.Run(JoinRequest{
			Algorithm: alg, K: int(k), ResidentFrac: -1, MemGrant: -1, Telemetry: tel,
		}); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := tel.TempFiles.Load(); got != want {
			t.Errorf("%v: %d temp files, want %d", alg, got, want)
		}
	}
}
