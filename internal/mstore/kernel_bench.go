package mstore

import "fmt"

// BucketSet materializes a database's Grace buckets once so the probe
// stage can be driven — and timed — in isolation, bucket partitioning
// excluded. cmd/bench's kernels panel and the go-bench suite probe one
// BucketSet repeatedly and report ns-per-pair and allocs-per-pair;
// TestKernelFlatMatchesExpected checks its Signature.
type BucketSet struct {
	rels  []*Relation
	refs  int64
	kern  *joinKernel
	arena probeArena
}

// BuildGraceBuckets partitions R into k order-preserving Grace buckets
// per S partition under tmpDir and returns the non-empty ones ready for
// repeated probing. The build runs sequentially — it is setup for
// measurement, not the measured stage. Close deletes the bucket files.
func (db *DB) BuildGraceBuckets(tmpDir string, k int) (*BucketSet, error) {
	if k < 1 {
		return nil, fmt.Errorf("mstore: BuildGraceBuckets needs k >= 1, got %d", k)
	}
	d := db.D
	bucketOf := func(ptr SPtr) int {
		rel := db.S[ptr.Part]
		return rankBucket(rel.IndexOf(ptr.Off), k, rel.Count())
	}
	counts := make([][]int64, d)
	for j := range counts {
		counts[j] = make([]int64, k)
	}
	for _, ri := range db.R {
		for x := 0; x < ri.Count(); x++ {
			ptr := DecodeSPtr(ri.Object(x))
			counts[ptr.Part][bucketOf(ptr)]++
		}
	}
	bs := &BucketSet{kern: newJoinKernel(db)}
	rels := make([][]*Relation, d)
	for j := 0; j < d; j++ {
		rels[j] = make([]*Relation, k)
		for b := 0; b < k; b++ {
			if counts[j][b] == 0 {
				continue
			}
			rel, err := db.tmpRelation(tmpDir, fmt.Sprintf("bench_gr_%d_%d.seg", j, b), int(counts[j][b]))
			if err != nil {
				bs.Close()
				return nil, err
			}
			rels[j][b] = rel
			bs.rels = append(bs.rels, rel)
			bs.refs += counts[j][b]
		}
	}
	for _, ri := range db.R {
		for x := 0; x < ri.Count(); x++ {
			obj := ri.Object(x)
			ptr := DecodeSPtr(obj)
			if _, err := rels[ptr.Part][bucketOf(ptr)].Append(obj); err != nil {
				bs.Close()
				return nil, err
			}
		}
	}
	return bs, nil
}

// Buckets returns the number of non-empty buckets.
func (bs *BucketSet) Buckets() int { return len(bs.rels) }

// Refs returns the total reference count across buckets — one probe
// pass folds exactly this many pairs.
func (bs *BucketSet) Refs() int64 { return bs.refs }

// ProbeFlat probes every bucket through the flat arena-backed table and
// returns the folded stats. After the first call the arena has reached
// its high-water capacity and subsequent calls allocate nothing.
func (bs *BucketSet) ProbeFlat() JoinStats {
	var st JoinStats
	for _, rel := range bs.rels {
		bs.kern.probeFlat(&bs.arena, rel, &st)
	}
	return st
}

// Close deletes the bucket files.
func (bs *BucketSet) Close() {
	for _, rel := range bs.rels {
		rel.Segment().Delete()
	}
	bs.rels = nil
}
