package mstore

import (
	"context"
	"fmt"

	"mmjoin/internal/exec"
)

// The index join operators. Both run over the persistent per-partition
// B-trees (index.go) instead of materializing transient probe state, so
// neither touches temporary storage at all:
//
//   - indexNL: nested loops with the probe side replaced by a real
//     B-tree descent per R object — the classic index-nested-loop,
//     which wins when |R| ≪ |S| (probe cost is R-proportional while
//     every other algorithm pays to scan, stage, or index S).
//   - indexMerge: MPSM-style sorted-range merge. The index key order
//     (partition<<32 | row) makes both trees' leaf chains sorted run
//     files; each morsel zips one S key range of one R-tree/S-tree pair
//     through the leaf-chain cursors, partition-local with no global
//     merge barrier — the sort the sort-merge join pays for at run time
//     was paid once at bulk-load.
//
// Both fold pairs through the same batched joinKernel as every other
// operator, so Pairs/Signature are bit-identical to the reference
// kernels at any worker count. Memory is grant-metered like PR 6, but
// the footprint is O(workers): one probe batch per worker and no
// tables, so the reservation is a fixed bite taken once up front.

// indexFootprint is the counted bytes of one worker's index-join state:
// a probe batch (8 B rid + 12 B pointer per slot, padded) plus cursor
// state.
func indexFootprint(workers int) int64 {
	return int64(workers) * (GatherWidth*24 + 64)
}

// IndexNL runs the index-nested-loop join on an ephemeral
// GOMAXPROCS-sized pool (the store must have indexes attached).
func (db *DB) IndexNL() (JoinStats, error) {
	return ephemeralPool(func(p *exec.Pool) (JoinStats, error) {
		return db.indexNL(context.Background(), p, newMemLimiter(0, nil, nil))
	})
}

// indexNL scans R in morsels; each object's join attribute is turned
// into its canonical index key (pure offset arithmetic, no S access)
// and probed through S's per-partition B-tree — a real root-to-leaf
// descent per object, the cost the analytical model's index-probe term
// prices.
func (db *DB) indexNL(ctx context.Context, p *exec.Pool, lim *memLimiter) (JoinStats, error) {
	if !db.HasIndexes() {
		return JoinStats{}, fmt.Errorf("mstore: index-nl needs attached indexes (run BuildIndexes or mmdb index)")
	}
	kern := newJoinKernel(db)
	if need := indexFootprint(p.Workers()); lim.reserve(need) {
		// A fixed O(workers) footprint: if the grant cannot cover it there
		// is nothing to shrink or restage, so an unreservable bite just
		// runs unmetered rather than failing the join.
		defer lim.release(need)
	}
	stats := newPerWorker(p)
	var tasks []exec.Task
	for i, ri := range db.R {
		i := i
		tasks = rangeTasks(tasks, ri.Count(), func(w, lo, hi int) error {
			st := &stats[w].JoinStats
			b := kern.newBatch()
			for x := lo; x < hi; x++ {
				obj := ri.Object(x)
				ptr := DecodeSPtr(obj)
				off, ok := db.sidx[ptr.Part].Get(db.indexKeyOf(ptr))
				if !ok {
					return fmt.Errorf("mstore: R%d[%d] key %d missing from S%d index", i, x, db.indexKeyOf(ptr), ptr.Part)
				}
				b.addPair(ridFromObj(obj), SPtr{Part: ptr.Part, Off: off}, st)
			}
			b.flush(st)
			return nil
		})
	}
	if err := p.Run(ctx, tasks); err != nil {
		return JoinStats{}, err
	}
	return stats.total(), nil
}

// IndexMerge runs the sorted-range merge join on an ephemeral
// GOMAXPROCS-sized pool (the store must have indexes attached).
func (db *DB) IndexMerge() (JoinStats, error) {
	return ephemeralPool(func(p *exec.Pool) (JoinStats, error) {
		return db.indexMerge(context.Background(), p, newMemLimiter(0, nil, nil))
	})
}

// indexMerge zips the two sides' leaf chains partition-locally: one
// morsel covers one (R partition, S key subrange) cell, advancing a
// cursor over each tree and expanding the R side's posting chains
// against the matching S row. Because the subranges partition the key
// space exactly, every morsel's output is disjoint and the fold is the
// usual commutative sum — no global merge phase, no barrier between
// cells (MPSM's shape on persistent indexes).
func (db *DB) indexMerge(ctx context.Context, p *exec.Pool, lim *memLimiter) (JoinStats, error) {
	if !db.HasIndexes() {
		return JoinStats{}, fmt.Errorf("mstore: index-merge needs attached indexes (run BuildIndexes or mmdb index)")
	}
	kern := newJoinKernel(db)
	if need := indexFootprint(p.Workers()); lim.reserve(need) {
		defer lim.release(need)
	}
	stats := newPerWorker(p)
	var tasks []exec.Task
	for i := range db.R {
		i := i
		rt := db.ridx[i]
		rRel := db.R[i]
		for j := range db.S {
			j := j
			st := db.sidx[j]
			base := uint64(j) << 32
			tasks = rangeTasks(tasks, db.S[j].Count(), func(w, lo, hi int) error {
				acc := &stats[w].JoinStats
				b := kern.newBatch()
				kLo, kHi := base|uint64(lo), base|uint64(hi-1)
				sit := st.iter(kLo, kHi)
				for rit := rt.iter(kLo, kHi); rit.valid(); rit.advance() {
					k := rit.key()
					for sit.valid() && sit.key() < k {
						sit.advance()
					}
					if !sit.valid() || sit.key() != k {
						return fmt.Errorf("mstore: R%d key %d missing from S%d index range", i, k, j)
					}
					sp := SPtr{Part: uint32(j), Off: st.firstValue(sit.ref())}
					rt.forEachValue(rit.ref(), func(v Ptr) bool {
						b.addPair(ridAt(rRel, v), sp, acc)
						return true
					})
				}
				b.flush(acc)
				return nil
			})
		}
	}
	if err := p.Run(ctx, tasks); err != nil {
		return JoinStats{}, err
	}
	return stats.total(), nil
}
