package mstore

import (
	"path/filepath"
	"testing"
)

// The go-bench counterpart of cmd/bench's kernels panel: probe a fixed
// Grace bucket set through the flat kernel. Run with
//
//	go test -bench ProbeKernel -benchmem ./internal/mstore/
//
// BenchmarkProbeKernelFlat must report 0 allocs/op — the steady state
// the per-worker arena buys.

func benchBuckets(b *testing.B) *BucketSet {
	b.Helper()
	db, err := CreateDB(filepath.Join(b.TempDir(), "db"), 4, 20000, 20000, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	bs, err := db.BuildGraceBuckets(b.TempDir(), 37)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(bs.Close)
	return bs
}

func BenchmarkProbeKernelFlat(b *testing.B) {
	bs := benchBuckets(b)
	want := bs.ProbeFlat()    // warm the arena to high-water capacity
	b.SetBytes(bs.Refs() * 8) // gathered S words per pass
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := bs.ProbeFlat(); st != want {
			b.Fatal("stats diverged")
		}
	}
}
