package mstore

import "encoding/binary"

// The kernel layer holds the cache-conscious inner loops of the joins.
// The morsel pool (internal/exec) decides *where* work runs; these
// kernels decide *how* one morsel's objects move through the cache
// hierarchy:
//
//   - joinKernel/joinBatch restructure the one-object-at-a-time pointer
//     dereference into fixed-width batches: a gather stage issues all of
//     a batch's S-side reads back-to-back (independent loads, so the
//     cache misses overlap in the memory pipeline) before the join stage
//     folds the pairs. Go has no prefetch intrinsics; the stride-ahead
//     read loop is the software equivalent.
//   - probeArena (kernel_table.go) replaces the per-bucket Go map with a
//     flat open-addressing table carved from a reusable per-worker
//     arena: zero steady-state allocations on the probe path.
//
// Every kernel is gated on bit-identical Pairs/Signature against the
// store's independently computed ExpectedStats: the signatures fold as
// commutative sums, so batching and table layout are free to reorder
// work (TestKernelSignatureGrid asserts the whole grid).

// GatherWidth is the fixed gather width of the batched probe kernels:
// how many S-side reads one batch makes before its fold. Width 64 ran
// nested loops about 15% faster than width 1 at 120k×120k on 2 CPUs and
// left sort-merge and Grace about even (EXPERIMENTS.md, "Cache-conscious
// kernels").
const GatherWidth = 64

// joinKernel is one join's view of the mapped store for the batched
// kernels: a full-segment byte view per S partition (the base relations
// never grow during a join, so the views are stable). One joinKernel is
// shared read-only by all of a join's morsels.
type joinKernel struct {
	sv [][]byte // segment views indexed by S partition
}

func newJoinKernel(db *DB) *joinKernel {
	sv := make([][]byte, len(db.S))
	for j, rel := range db.S {
		sv[j] = rel.seg.data
	}
	return &joinKernel{sv: sv}
}

// sWord reads the identity word of the S object at ptr through the
// cached segment view (one bounds check, no per-call header reads).
func (k *joinKernel) sWord(p SPtr) uint64 {
	return binary.LittleEndian.Uint64(k.sv[p.Part][p.Off:])
}

// joinBatch folds R→S pairs in fixed-width batches. add records one
// reference; flush runs the two stages: the gather loop issues every
// S-side read of the batch (independent loads — the misses overlap),
// then the fold loop hashes against the already-loaded words. Callers
// create one joinBatch per morsel (stack-sized) and must flush the tail
// before folding the morsel's accumulator.
type joinBatch struct {
	k   *joinKernel
	n   int
	rid [GatherWidth]uint64
	ptr [GatherWidth]SPtr
}

func (k *joinKernel) newBatch() joinBatch { return joinBatch{k: k} }

// add queues one R object's pair; obj must be an R-layout record
// (S-pointer then R id).
func (b *joinBatch) add(obj []byte, st *JoinStats) {
	b.addPair(binary.LittleEndian.Uint64(obj[ridOffset:]), DecodeSPtr(obj), st)
}

// addPair queues one already-decoded (rid, S-pointer) pair — the entry
// point for the index operators, whose probes yield S locations without
// an R-layout record in hand.
func (b *joinBatch) addPair(rid uint64, p SPtr, st *JoinStats) {
	b.ptr[b.n] = p
	b.rid[b.n] = rid
	b.n++
	if b.n == GatherWidth {
		b.flush(st)
	}
}

// flush drains the queued pairs into st.
func (b *joinBatch) flush(st *JoinStats) {
	n := b.n
	if n == 0 {
		return
	}
	var sw [GatherWidth]uint64
	for i := 0; i < n; i++ { // gather: S-side reads back-to-back
		sw[i] = b.k.sWord(b.ptr[i])
	}
	for i := 0; i < n; i++ { // fold: hash against loaded words
		st.Signature += pairHash(b.rid[i], sw[i])
	}
	st.Pairs += int64(n)
	b.n = 0
}

// joinRange batch-joins the objects [lo, hi) of an R-layout relation.
func (k *joinKernel) joinRange(rel *Relation, lo, hi int, st *JoinStats) {
	view, base, size := rel.seg.data, int64(rel.data), rel.size
	b := k.newBatch()
	for x := lo; x < hi; x++ {
		b.add(view[base+int64(x)*size:base+int64(x+1)*size], st)
	}
	b.flush(st)
}
