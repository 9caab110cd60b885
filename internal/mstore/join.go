package mstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"mmjoin/internal/exec"
	"mmjoin/internal/pheap"
)

// The joins are morsel-driven: each pass decomposes into fixed-size
// object-range tasks pulled by a work-stealing pool (internal/exec)
// whose size is the host CPU parallelism, independent of D. The paper's
// structural parallelism — one Rproc per disk partition — survives as
// the shape of the task lists (per-partition scans, staggered probe
// order), but the number of goroutines touching the mapping at once is
// the pool's, so a 16-core host saturates on a D=4 database and a
// server running many joins on one shared pool never oversubscribes.
//
// Every morsel folds into a per-worker JoinStats accumulator and the
// accumulators are summed at the end. Pairs and Signature are
// commutative sums, so results are bit-identical at any worker count
// and under any steal schedule.
//
// The inner loops themselves live in the kernel layer (kernel*.go):
// batched pointer dereference and flat arena-backed probe tables, both
// gated on bit-identical Pairs/Signature against ExpectedStats.

// morselObjs is the fixed morsel size: the number of objects one
// work-stealing task covers. Around 4k objects a morsel is a few
// hundred microseconds of work — coarse enough that pool bookkeeping
// (two mutex ops per morsel) vanishes, fine enough to balance skew.
const morselObjs = 4096

// paddedStats is one worker's JoinStats accumulator padded to a cache
// line so concurrent workers do not false-share.
type paddedStats struct {
	JoinStats
	_ [48]byte
}

type perWorker []paddedStats

func newPerWorker(p *exec.Pool) perWorker { return make(perWorker, p.Workers()) }

// total folds the per-worker accumulators; the fold is a commutative
// sum, so the result is independent of which worker ran which morsel.
func (s perWorker) total() JoinStats {
	var t JoinStats
	for i := range s {
		t.Fold(s[i].JoinStats)
	}
	return t
}

// morselCount is the number of tasks rangeTasks emits for n objects.
func morselCount(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + morselObjs - 1) / morselObjs
}

// rangeTasks appends one task per morselObjs-sized range of [0, n).
// Empty inputs append nothing, and every emitted range is non-empty —
// the pool never churns through zero-width morsels.
func rangeTasks(tasks []exec.Task, n int, fn func(w, lo, hi int) error) []exec.Task {
	if n <= 0 {
		return tasks
	}
	for lo := 0; lo < n; lo += morselObjs {
		lo, hi := lo, min(lo+morselObjs, n)
		if hi <= lo {
			continue
		}
		tasks = append(tasks, func(w int) error { return fn(w, lo, hi) })
	}
	return tasks
}

// refCounts measures the pointer distribution of R morsel-parallel:
// counts[i][j] is the number of Ri objects referencing partition Sj.
// The joins size their temporary relations from this measure instead of
// assuming worst-case |Ri| per file.
func (db *DB) refCounts(ctx context.Context, p *exec.Pool) ([][]int64, error) {
	d := db.D
	counts := make([][]int64, d)
	for i := range counts {
		counts[i] = make([]int64, d)
	}
	var tasks []exec.Task
	for i, ri := range db.R {
		tasks = rangeTasks(tasks, ri.Count(), func(_, lo, hi int) error {
			local := make([]int64, d)
			for x := lo; x < hi; x++ {
				part := int(DecodeSPtr(ri.Object(x)).Part)
				if part >= d {
					return fmt.Errorf("mstore: R%d[%d] points to partition %d", i, x, part)
				}
				local[part]++
			}
			for j, c := range local {
				if c != 0 {
					atomic.AddInt64(&counts[i][j], c)
				}
			}
			return nil
		})
	}
	if err := p.Run(ctx, tasks); err != nil {
		return nil, err
	}
	return counts, nil
}

// ephemeralPool runs fn on a pool created for this one call (GOMAXPROCS
// workers), the execution mode of the convenience methods below; Run
// with JoinRequest.Workers or a shared Pool controls parallelism
// explicitly.
func ephemeralPool(fn func(p *exec.Pool) (JoinStats, error)) (JoinStats, error) {
	p := exec.NewPool(0)
	defer p.Close()
	return fn(p)
}

// rankBucket maps the object of rank idx among n onto one of k
// order-preserving buckets. The product idx·k overflows int on 32-bit
// platforms at realistic sizes (a 10M-object partition times k=512
// exceeds 2^31), so the math is done in int64.
func rankBucket(idx, k, n int) int {
	if n < 1 || k < 1 {
		return 0
	}
	b := int(int64(idx) * int64(k) / int64(n))
	if b < 0 {
		b = 0
	}
	if b >= k {
		b = k - 1
	}
	return b
}

// tmpRelation creates a throwaway relation file under dir. Capacity 0
// (a measured-empty partition or bucket) still allocates one slot so the
// relation is well-formed.
func (db *DB) tmpRelation(dir, name string, capacity int) (*Relation, error) {
	capacity = max(capacity, 1)
	path := filepath.Join(dir, name)
	// Temp names must be unique within a join: Create truncates, so a
	// colliding name would silently corrupt a live temporary instead of
	// failing.
	if _, err := os.Lstat(path); err == nil {
		return nil, fmt.Errorf("mstore: temp relation name collision: %s", path)
	}
	seg, err := Create(path, int64(db.ObjSize)*int64(capacity)+4096)
	if err != nil {
		return nil, err
	}
	return CreateRelation(seg, db.ObjSize, capacity)
}

// NestedLoops runs the parallel pointer-based nested loops join over
// the mapped store on an ephemeral GOMAXPROCS-sized pool.
func (db *DB) NestedLoops(tmpDir string) (JoinStats, error) {
	return ephemeralPool(func(p *exec.Pool) (JoinStats, error) {
		return db.nestedLoops(context.Background(), p, tmpDir, newMemLimiter(0, nil, nil))
	})
}

// nestedLoops: pass 0 scans Ri in morsels, joining own-partition
// references immediately through the batched kernel and
// sub-partitioning the rest into temporary RP<i,j> relations; pass 1
// probes the sub-partitions in the paper's staggered phase order (§5.1).
// lim only counts the temp relations: nested loops builds no tables.
func (db *DB) nestedLoops(ctx context.Context, p *exec.Pool, tmpDir string, lim *memLimiter) (JoinStats, error) {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return JoinStats{}, err
	}
	d := db.D
	kern := newJoinKernel(db)
	// Measured pointer distribution: counts[i][j] sizes RP<i,j> exactly.
	// (The former sizing at |Ri| wrote D−1 full-size files per
	// partition.) The Appender grows on overflow, so the measure is a
	// sizing hint, not a correctness requirement.
	counts, err := db.refCounts(ctx, p)
	if err != nil {
		return JoinStats{}, err
	}
	rp := make([][]*Appender, d)
	defer func() {
		for i := range rp {
			for _, ap := range rp[i] {
				if ap != nil {
					ap.Relation().Segment().Delete()
				}
			}
		}
	}()
	for i := 0; i < d; i++ {
		rp[i] = make([]*Appender, d)
		for j := 0; j < d; j++ {
			if j == i || counts[i][j] == 0 {
				continue
			}
			rel, err := db.tmpRelation(tmpDir, fmt.Sprintf("RP%d_%d.seg", i, j), int(counts[i][j]))
			if err != nil {
				return JoinStats{}, err
			}
			lim.tel.TempFiles.Add(1)
			rp[i][j] = NewAppender(rel)
		}
	}

	stats := newPerWorker(p)
	// Pass 0.
	var tasks []exec.Task
	for i, ri := range db.R {
		tasks = rangeTasks(tasks, ri.Count(), func(w, lo, hi int) error {
			st := &stats[w].JoinStats
			b := kern.newBatch()
			for x := lo; x < hi; x++ {
				obj := ri.Object(x)
				if part := int(DecodeSPtr(obj).Part); part == i {
					b.add(obj, st)
				} else if err := rp[i][part].Append(obj); err != nil {
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
	for i := range rp {
		for _, ap := range rp[i] {
			if ap != nil {
				ap.Seal()
			}
		}
	}

	// Pass 1: probe morsels enqueued in staggered phase order — Rproc i
	// probes RP<i,(i+t) mod D> at phase t — so concurrently executing
	// morsels tend to touch different S partitions.
	tasks = tasks[:0]
	for t := 1; t < d; t++ {
		for i := 0; i < d; i++ {
			ap := rp[i][(i+t)%d]
			if ap == nil {
				continue
			}
			sub := ap.Relation()
			tasks = rangeTasks(tasks, sub.Count(), func(w, lo, hi int) error {
				kern.joinRange(sub, lo, hi, &stats[w].JoinStats)
				return nil
			})
		}
	}
	if err := p.Run(ctx, tasks); err != nil {
		return JoinStats{}, err
	}
	return stats.total(), nil
}

// SortMerge runs the parallel pointer-based sort-merge join on an
// ephemeral GOMAXPROCS-sized pool.
func (db *DB) SortMerge(tmpDir string) (JoinStats, error) {
	return ephemeralPool(func(p *exec.Pool) (JoinStats, error) {
		return db.sortMerge(context.Background(), p, tmpDir, newMemLimiter(0, nil, nil))
	})
}

// sortSplitCount picks how many address-range splits one RSi
// partition-then-sort uses: enough tasks to occupy the pool across all
// D partitions (with headroom for stealing), but never splits smaller
// than a morsel. One worker gets one split per partition — exactly the
// old sequential in-place sort.
func sortSplitCount(workers, d, count int) int {
	s := (4*workers + d - 1) / d
	if maxS := count/morselObjs + 1; s > maxS {
		s = maxS
	}
	return max(s, 1)
}

// sortMerge: passes 0/1 form the RSj partitions directly through
// concurrent appenders (one atomic slot claim per object); each RSj is
// then sorted by S address via parallel partition-then-sort and the
// final scan batch-probes Si in ascending address order within every
// split.
//
// The sort-probe phase is MPSM-style partition-local: all of it runs as
// ONE dynamic job with no global barrier between stages. The last
// split-count morsel of partition j immediately builds j's prefix sums,
// creates its split-layout relation, and enqueues j's scatter; the last
// scatter morsel enqueues j's sort+probe splits. A small partition
// sorts and probes while a large one is still counting — under skew the
// former global barriers idled every worker on the largest partition
// three times. lim only counts the temp relations.
func (db *DB) sortMerge(ctx context.Context, p *exec.Pool, tmpDir string, lim *memLimiter) (JoinStats, error) {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return JoinStats{}, err
	}
	d := db.D
	kern := newJoinKernel(db)
	counts, err := db.refCounts(ctx, p)
	if err != nil {
		return JoinStats{}, err
	}
	rsTotal := make([]int64, d)
	for j := 0; j < d; j++ {
		for i := 0; i < d; i++ {
			rsTotal[j] += counts[i][j]
		}
	}

	rs := make([]*Appender, d)
	srt := make([]*Relation, d)
	defer func() {
		for j := 0; j < d; j++ {
			if rs[j] != nil {
				rs[j].Relation().Segment().Delete()
			}
			if srt[j] != nil {
				srt[j].Segment().Delete()
			}
		}
	}()
	for j := 0; j < d; j++ {
		rel, err := db.tmpRelation(tmpDir, fmt.Sprintf("RS%d.seg", j), int(rsTotal[j]))
		if err != nil {
			return JoinStats{}, err
		}
		lim.tel.TempFiles.Add(1)
		rs[j] = NewAppender(rel)
	}
	var tasks []exec.Task
	for _, ri := range db.R {
		tasks = rangeTasks(tasks, ri.Count(), func(_, lo, hi int) error {
			for x := lo; x < hi; x++ {
				obj := ri.Object(x)
				if err := rs[DecodeSPtr(obj).Part].Append(obj); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := p.Run(ctx, tasks); err != nil {
		return JoinStats{}, err
	}
	for j := 0; j < d; j++ {
		rs[j].Seal()
	}

	// Partition-local sort-merge: split each RSj into contiguous
	// S-address ranges so the splits sort and probe independently.
	splits := make([]int, d)
	splitCounts := make([][]int64, d)
	starts := make([][]int64, d)         // split start offsets after prefix sums
	cursors := make([][]atomic.Int64, d) // scatter cursors per split
	countLeft := make([]atomic.Int64, d)
	scatterLeft := make([]atomic.Int64, d)
	stats := newPerWorker(p)
	splitOf := func(j int, off Ptr) int {
		rel := db.S[j]
		return rankBucket(rel.IndexOf(off), splits[j], rel.Count())
	}

	jb := p.Begin(ctx)
	// One split's terminal stage: heap-sort a handle array over the
	// mapped records by S pointer, apply the permutation in place, then
	// batch-probe — sequential in both the split and Si.
	sortProbe := func(j, lo, hi int) exec.Task {
		return func(w int) error {
			rel := srt[j]
			handles := make([]int32, hi-lo)
			for h := range handles {
				handles[h] = int32(h)
			}
			pheap.Sort(handles, func(a, b int32) bool {
				return DecodeSPtr(rel.Object(lo+int(a))).Off < DecodeSPtr(rel.Object(lo+int(b))).Off
			})
			permuteRange(rel, lo, handles)
			kern.joinRange(rel, lo, hi, &stats[w].JoinStats)
			return nil
		}
	}
	for j := 0; j < d; j++ {
		j := j
		rel := rs[j].Relation()
		n := rel.Count()
		if n == 0 {
			continue
		}
		splits[j] = sortSplitCount(p.Workers(), d, n)
		splitCounts[j] = make([]int64, splits[j])
		countLeft[j].Store(int64(morselCount(n)))
		scatterLeft[j].Store(int64(morselCount(n)))

		scatter := func(_, lo, hi int) error {
			dst := srt[j]
			// Slots are claimed atomically, so no two writers touch one
			// record; order within a split is arbitrary — the sort
			// imposes the final order.
			for x := lo; x < hi; x++ {
				obj := rel.Object(x)
				slot := cursors[j][splitOf(j, DecodeSPtr(obj).Off)].Add(1) - 1
				copy(dst.seg.Bytes(dst.PtrAt(int(slot)), dst.size), obj)
			}
			if scatterLeft[j].Add(-1) == 0 {
				// Partition j fully scattered: enqueue its sort+probe
				// splits without waiting for the other partitions.
				var sp []exec.Task
				for b := 0; b < splits[j]; b++ {
					lo, hi := int(starts[j][b]), int(starts[j][b]+splitCounts[j][b])
					if lo < hi {
						sp = append(sp, sortProbe(j, lo, hi))
					}
				}
				return jb.Add(sp...)
			}
			return nil
		}

		var count []exec.Task
		count = rangeTasks(count, n, func(_, lo, hi int) error {
			local := make([]int64, splits[j])
			for x := lo; x < hi; x++ {
				local[splitOf(j, DecodeSPtr(rel.Object(x)).Off)]++
			}
			for b, c := range local {
				if c != 0 {
					atomic.AddInt64(&splitCounts[j][b], c)
				}
			}
			if countLeft[j].Add(-1) == 0 {
				// Partition j fully counted: prefix sums, split-layout
				// relation, and its scatter morsels — still inside the
				// same job.
				starts[j] = make([]int64, splits[j])
				cursors[j] = make([]atomic.Int64, splits[j])
				off := int64(0)
				for b := 0; b < splits[j]; b++ {
					starts[j][b] = off
					cursors[j][b].Store(off)
					off += splitCounts[j][b]
				}
				dst, err := db.tmpRelation(tmpDir, fmt.Sprintf("SRT%d.seg", j), n)
				if err != nil {
					return err
				}
				lim.tel.TempFiles.Add(1)
				dst.SetCount(n)
				srt[j] = dst
				var sc []exec.Task
				sc = rangeTasks(sc, n, scatter)
				return jb.Add(sc...)
			}
			return nil
		})
		if err := jb.Add(count...); err != nil {
			break // the job is failed; Wait returns the error
		}
	}
	if err := jb.Wait(); err != nil {
		return JoinStats{}, err
	}
	return stats.total(), nil
}

// permuteRange reorders rel[lo : lo+len(handles)] so record lo+x
// becomes the record previously at lo+handles[x], cycle-chasing with
// one scratch record.
func permuteRange(rel *Relation, lo int, handles []int32) {
	n := len(handles)
	visited := make([]bool, n)
	scratch := make([]byte, rel.ObjSize())
	for start := 0; start < n; start++ {
		if visited[start] || int(handles[start]) == start {
			visited[start] = true
			continue
		}
		copy(scratch, rel.Object(lo+start))
		x := start
		for {
			src := int(handles[x])
			visited[x] = true
			if src == start {
				copy(rel.Object(lo+x), scratch)
				break
			}
			copy(rel.Object(lo+x), rel.Object(lo+src))
			x = src
		}
	}
}

// Grace runs the parallel pointer-based Grace join on an ephemeral
// GOMAXPROCS-sized pool with no probe-memory bound. k is clamped like
// JoinRequest.K.
func (db *DB) Grace(tmpDir string, k int) (JoinStats, error) {
	return ephemeralPool(func(p *exec.Pool) (JoinStats, error) {
		return db.grace(context.Background(), p, tmpDir, min(k, db.maxK()), newMemLimiter(0, nil, nil))
	})
}

// grace: the scan hashes every R object into one of k order-preserving
// buckets per S partition (see bucketedJoin), then every (partition,
// bucket) pair probes independently through the flat-table kernel.
// Probe memory is metered by lim; oversized buckets restage or stream
// (see probeEnv) instead of overshooting the grant.
func (db *DB) grace(ctx context.Context, p *exec.Pool, tmpDir string, k int, lim *memLimiter) (JoinStats, error) {
	if k < 1 {
		return JoinStats{}, fmt.Errorf("mstore: Grace needs k >= 1, got %d", k)
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return JoinStats{}, err
	}
	bj := &bucketedJoin{
		db: db, tmpDir: tmpDir, prefix: "gr", k: k, lim: lim,
		// The order-preserving hash: bucket by position of the S offset
		// within the partition's data area.
		bucketOf: func(ptr SPtr) int {
			rel := db.S[ptr.Part]
			return rankBucket(rel.IndexOf(ptr.Off), k, rel.Count())
		},
	}
	return bj.run(ctx, p)
}

// tableBytesFor is the counted footprint of one bucket's flat probe
// table: the open-addressing slot arrays (8 B key + 4 B head per slot,
// power-of-two slots at ≤3/4 load factor) plus the per-reference chain
// link (4 B) and the distinct-key sweep arrays (worst case 12 B per
// reference, when every reference is distinct).
func tableBytesFor(refs int) int64 {
	return tableSlots(refs)*12 + int64(refs)*16
}

// probeEnv carries the grant machinery of one join's probe stage. Each
// probe task reserves its table's counted bytes from the shared limiter
// before building it, so the sum over concurrently built tables never
// exceeds the grant — the invariant the skew tests assert. The flat
// tables build inside per-worker arenas; an arena retains its high-water
// capacity between buckets (that is the zero-alloc steady state), which
// stays within the accounting because a worker builds one table at a
// time and every build is reserved at full size first.
type probeEnv struct {
	db     *DB
	kern   *joinKernel
	lim    *memLimiter
	tmpDir string
	seq    atomic.Int64 // unique names for restage temp relations
	arenas []probeArena // per-worker table storage
}

func newProbeEnv(db *DB, kern *joinKernel, lim *memLimiter, tmpDir string, workers int) *probeEnv {
	return &probeEnv{db: db, kern: kern, lim: lim, tmpDir: tmpDir, arenas: make([]probeArena, workers)}
}

// probe joins one bucket within the grant on worker w. The fast path
// reserves the table's bytes (waiting for concurrent probes when the
// grant is temporarily occupied) and builds the flat table in w's
// arena. A bucket whose table can never fit — renegotiation included —
// is restaged into sub-buckets on disk until each fits, and a bucket
// whose references collapse onto a single S object (one hot key)
// streams instead: restaging cannot split it, but it also needs no
// table.
func (e *probeEnv) probe(w int, rel *Relation, st *JoinStats, depth int) error {
	need := tableBytesFor(rel.Count())
	if e.lim.reserve(need) {
		defer e.lim.release(need)
		e.kern.probeFlat(&e.arenas[w], rel, st)
		return nil
	}
	lo, hi := e.indexSpan(rel)
	if depth >= maxRestageDepth || lo >= hi {
		return e.streamProbe(rel, st)
	}
	return e.restage(w, rel, st, lo, hi, depth)
}

// indexSpan scans a bucket and returns the minimum and maximum S index
// its references name (every reference in a bucket points into one S
// partition, so the indexes are comparable).
func (e *probeEnv) indexSpan(rel *Relation) (lo, hi int) {
	lo, hi = int(^uint(0)>>1), -1
	for x := 0; x < rel.Count(); x++ {
		ptr := DecodeSPtr(rel.Object(x))
		idx := e.db.S[ptr.Part].IndexOf(ptr.Off)
		lo, hi = min(lo, idx), max(hi, idx)
	}
	return lo, hi
}

// restage re-partitions one oversized bucket into sub-buckets on disk —
// the spill path of the dynamic hybrid-hash design. The fan-out is just
// large enough that an average sub-bucket's table fits the current
// grant; skew that concentrates references recurses, narrowing the
// S-index span every pass (min and max always separate), until each
// sub-bucket either fits or has collapsed onto a single hot key.
func (e *probeEnv) restage(w int, rel *Relation, st *JoinStats, lo, hi, depth int) error {
	span := hi - lo + 1
	budget := max(e.lim.budgetNow(), 1)
	sub := int((tableBytesFor(rel.Count()) + budget - 1) / budget)
	sub = max(min(sub, maxRestageFanout, span), 2)

	cnts := make([]int64, sub)
	subIdx := func(ptr SPtr) int {
		return rankBucket(e.db.S[ptr.Part].IndexOf(ptr.Off)-lo, sub, span)
	}
	for x := 0; x < rel.Count(); x++ {
		cnts[subIdx(DecodeSPtr(rel.Object(x)))]++
	}
	aps := make([]*Appender, sub)
	defer func() {
		for _, ap := range aps {
			if ap != nil {
				ap.Relation().Segment().Delete()
			}
		}
	}()
	for b := 0; b < sub; b++ {
		if cnts[b] == 0 {
			continue
		}
		r, err := e.db.tmpRelation(e.tmpDir,
			fmt.Sprintf("rs_%d_%d.seg", depth, e.seq.Add(1)), int(cnts[b])+1)
		if err != nil {
			return err
		}
		e.lim.tel.TempFiles.Add(1)
		aps[b] = NewAppender(r)
	}
	for x := 0; x < rel.Count(); x++ {
		obj := rel.Object(x)
		if err := aps[subIdx(DecodeSPtr(obj))].Append(obj); err != nil {
			return err
		}
	}
	e.lim.tel.Restages.Add(1)
	e.lim.tel.RestagedRefs.Add(int64(rel.Count()))
	for b := 0; b < sub; b++ {
		if aps[b] == nil {
			continue
		}
		aps[b].Seal()
		if err := e.probe(w, aps[b].Relation(), st, depth+1); err != nil {
			return err
		}
		aps[b].Relation().Segment().Delete()
		aps[b] = nil
	}
	return nil
}

// streamProbe joins one bucket without ever building its table: the
// bucket is processed in grant-sized chunks whose handles are sorted by
// S address, so memory is bounded by one chunk's handle array while the
// probe still walks S in ascending order within each chunk — and the
// ordered walk is batch-gathered like every other kernel. Correctness
// does not depend on the order — Pairs and Signature fold as
// commutative sums — so the result stays bit-identical.
func (e *probeEnv) streamProbe(rel *Relation, st *JoinStats) error {
	e.lim.tel.StreamProbes.Add(1)
	n := rel.Count()
	chunk := n
	if e.lim.bounded() {
		chunk = int(min(int64(n), max(e.lim.budgetNow()/streamHandleBytes, 1)))
	}
	bytes := int64(chunk) * streamHandleBytes
	if !e.lim.reserve(bytes) {
		// A grant below one handle: degenerate, but still bounded — scan
		// in file order with no auxiliary memory at all.
		b := e.kern.newBatch()
		for x := 0; x < n; x++ {
			b.add(rel.Object(x), st)
		}
		b.flush(st)
		return nil
	}
	defer e.lim.release(bytes)
	handles := make([]int32, chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		h := handles[:hi-lo]
		for i := range h {
			h[i] = int32(lo + i)
		}
		pheap.Sort(h, func(a, b int32) bool {
			return DecodeSPtr(rel.Object(int(a))).Off < DecodeSPtr(rel.Object(int(b))).Off
		})
		b := e.kern.newBatch()
		for _, x := range h {
			b.add(rel.Object(int(x)), st)
		}
		b.flush(st)
	}
	return nil
}

// HybridHash runs the parallel pointer-based hybrid-hash join on an
// ephemeral GOMAXPROCS-sized pool with no probe-memory bound. k is
// clamped like JoinRequest.K.
func (db *DB) HybridHash(tmpDir string, k int, residentFrac float64) (JoinStats, error) {
	return ephemeralPool(func(p *exec.Pool) (JoinStats, error) {
		return db.hybridHash(context.Background(), p, tmpDir, min(k, db.maxK()), residentFrac, newMemLimiter(0, nil, nil))
	})
}

// hybridHash: references into a resident prefix of each S partition
// (residentFrac of its objects) join immediately during the scan
// morsels and never touch temporary storage; the remainder goes through
// Grace-style ordered buckets, probed under lim's memory grant.
func (db *DB) hybridHash(ctx context.Context, p *exec.Pool, tmpDir string, k int, residentFrac float64, lim *memLimiter) (JoinStats, error) {
	if k < 1 {
		return JoinStats{}, fmt.Errorf("mstore: HybridHash needs k >= 1, got %d", k)
	}
	if residentFrac < 0 || residentFrac > 1 {
		return JoinStats{}, fmt.Errorf("mstore: residentFrac %g out of [0,1]", residentFrac)
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return JoinStats{}, err
	}
	d := db.D
	residentUpTo := make([]int, d)
	for j := 0; j < d; j++ {
		residentUpTo[j] = int(residentFrac * float64(db.S[j].Count()))
	}
	bj := &bucketedJoin{
		db: db, tmpDir: tmpDir, prefix: "hh", k: k, lim: lim,
		bucketOf: func(ptr SPtr) int {
			rel := db.S[ptr.Part]
			lo := residentUpTo[ptr.Part]
			return rankBucket(rel.IndexOf(ptr.Off)-lo, k, rel.Count()-lo)
		},
		resident: func(ptr SPtr) bool {
			return db.S[ptr.Part].IndexOf(ptr.Off) < residentUpTo[ptr.Part]
		},
	}
	return bj.run(ctx, p)
}
