package mstore

import (
	"context"
	"fmt"
	"sync/atomic"

	"mmjoin/internal/exec"
)

// bucketedJoin runs both the Grace and the hybrid-hash join:
// a counting pass over R, one scatter pass straight into k
// order-preserving buckets per S partition (k ≤ MaxBuckets, clamped by
// maxK), and a grant-metered probe of every non-empty bucket.
// The two algorithms differ only in the bucket function and in which
// references bypass the buckets entirely (hybrid's resident prefix
// joins during the scan).
type bucketedJoin struct {
	db     *DB
	tmpDir string
	prefix string // temp-file prefix: "gr" (Grace) or "hh" (hybrid)
	k      int
	lim    *memLimiter

	bucketOf func(SPtr) int
	resident func(SPtr) bool // nil: nothing is resident (Grace)
}

func (bj *bucketedJoin) run(ctx context.Context, p *exec.Pool) (JoinStats, error) {
	db, d, k := bj.db, bj.db.D, bj.k
	kern := newJoinKernel(db)
	env := newProbeEnv(db, kern, bj.lim, bj.tmpDir, p.Workers())
	// One scatter pass; JoinTelemetry.RadixPasses keeps reporting it.
	bj.lim.tel.RadixPasses.Store(1)

	// Counting pass (morsel-parallel): size every bucket file exactly.
	counts := make([][]int64, d)
	for j := range counts {
		counts[j] = make([]int64, k)
	}
	var tasks []exec.Task
	for _, ri := range db.R {
		tasks = rangeTasks(tasks, ri.Count(), func(_, lo, hi int) error {
			for x := lo; x < hi; x++ {
				ptr := DecodeSPtr(ri.Object(x))
				if bj.resident != nil && bj.resident(ptr) {
					continue
				}
				atomic.AddInt64(&counts[ptr.Part][bj.bucketOf(ptr)], 1)
			}
			return nil
		})
	}
	if err := p.Run(ctx, tasks); err != nil {
		return JoinStats{}, err
	}

	// Buckets materialize lazily — a measured-empty bucket gets no
	// appender and no segment file. (Eager D·K creation meant 32k
	// mmap'd files per join at D=64, K=512 — fd and VMA exhaustion.)
	buckets := make([][]*Appender, d)
	defer func() {
		for j := range buckets {
			for _, ap := range buckets[j] {
				if ap != nil {
					ap.Relation().Segment().Delete()
				}
			}
		}
	}()
	for j := 0; j < d; j++ {
		buckets[j] = make([]*Appender, k)
		for b, cnt := range counts[j] {
			if cnt == 0 {
				continue
			}
			rel, err := db.tmpRelation(bj.tmpDir, fmt.Sprintf("%s_%d_%d.seg", bj.prefix, j, b), int(cnt)+1)
			if err != nil {
				return JoinStats{}, err
			}
			bj.lim.tel.TempFiles.Add(1)
			buckets[j][b] = NewAppender(rel)
		}
	}

	stats := newPerWorker(p)
	// Scan pass: resident references join immediately through the
	// batched kernel and never touch temporary storage; the rest scatter
	// into their buckets.
	tasks = tasks[:0]
	for _, ri := range db.R {
		tasks = rangeTasks(tasks, ri.Count(), func(w, lo, hi int) error {
			st := &stats[w].JoinStats
			b := kern.newBatch()
			for x := lo; x < hi; x++ {
				obj := ri.Object(x)
				ptr := DecodeSPtr(obj)
				if bj.resident != nil && bj.resident(ptr) {
					b.add(obj, st)
					continue
				}
				if err := buckets[ptr.Part][bj.bucketOf(ptr)].Append(obj); err != nil {
					return err
				}
			}
			b.flush(st)
			return nil
		})
	}
	if err := p.Run(ctx, tasks); err != nil {
		return JoinStats{}, err
	}

	// Probe stage: one task per non-empty bucket.
	tasks = tasks[:0]
	for j := range buckets {
		for _, ap := range buckets[j] {
			if ap == nil {
				continue
			}
			ap.Seal()
			rel := ap.Relation()
			if rel.Count() == 0 {
				continue
			}
			tasks = append(tasks, func(w int) error {
				return env.probe(w, rel, &stats[w].JoinStats, 0)
			})
		}
	}
	if err := p.Run(ctx, tasks); err != nil {
		return JoinStats{}, err
	}
	return stats.total(), nil
}
