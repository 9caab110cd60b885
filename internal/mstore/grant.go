package mstore

import (
	"sync"
	"sync/atomic"
)

// The planner's memory estimate is exactly that — an estimate. Under
// Zipf key skew, or when the db.Workload() sample the service planned
// against has gone stale, a single Grace/hybrid bucket can hold nearly
// all of R, and a probe that materializes its table regardless of the
// admission grant makes the service's memory budget a fiction. The
// machinery in this file makes every probe provably respect its grant,
// following the dynamic hybrid-hash playbook (per-bucket spill/restage,
// growth-triggered repartitioning, mid-join grant renegotiation):
//
//   - memLimiter meters every in-memory probe structure (hash tables,
//     sort handles) against a join-wide byte budget; concurrent probes
//     that would overshoot together wait their turn.
//   - A bucket whose table can never fit — even alone — first asks the
//     GrantNegotiator for more memory, and failing that is restaged:
//     re-partitioned into sub-buckets on disk until each fits.
//   - A bucket one hot key dominates cannot be split by restaging (every
//     reference names the same S object), so it falls back to a
//     streaming sorted-probe that never builds the table at all.
//
// All of it is gated, as every execution change in this repo, on
// bit-identical Pairs/Signature: the adaptations reorder work, and the
// join statistics fold as commutative sums.

// The counted in-memory footprint of one bucket's probe table is
// tableBytesFor (join.go): the flat open-addressing slot arrays at
// their real load factor plus the per-reference chain and sweep
// entries. The limiter's bound is over these counted bytes — the same
// accounting the grant-bound invariant tests measure.

// streamHandleBytes is the per-reference cost of the streaming probe's
// chunk handle array (one int32 index).
const streamHandleBytes = 4

// maxRestageFanout caps how many sub-buckets one restage pass creates;
// a bucket that overshoots further recurses instead of opening an
// unbounded number of temp files at once.
const maxRestageFanout = 64

// maxRestageDepth is a safety rail on restage recursion. The recursion
// provably terminates without it (every pass separates the span's min
// and max S index), but a rail keeps a future bucketing bug from
// turning into runaway temp-file creation.
const maxRestageDepth = 32

// GrantNegotiator lets a join that discovers mid-flight it was
// under-granted ask the admission layer for more memory instead of
// silently overshooting. Implementations must not block: a denied
// growth makes the operator restage or stream, both of which make
// progress under the original grant.
type GrantNegotiator interface {
	// TryGrow asks for bytes beyond the original grant, returning true
	// when the extra memory was charged to the caller's account.
	TryGrow(bytes int64) bool
	// GiveBack returns bytes previously obtained through TryGrow.
	GiveBack(bytes int64)
}

// JoinTelemetry counts one join's memory-adaptation events. All fields
// are atomics so concurrently probing morsels record without locks; a
// server folds them into its /stats counters after the join.
type JoinTelemetry struct {
	// TempFiles counts temporary relations actually created: RP
	// sub-partitions (nested loops), RS and SRT partitions (sort-merge),
	// and buckets plus restage sub-buckets (Grace, hybrid-hash). With
	// lazy bucket materialization the buckets count only the non-empty
	// ones, not D·K.
	TempFiles atomic.Int64
	// Restages counts oversized buckets re-partitioned into disk
	// sub-buckets; RestagedRefs the references rewritten doing so.
	Restages     atomic.Int64
	RestagedRefs atomic.Int64
	// StreamProbes counts buckets joined by the bounded streaming
	// fallback (hot-key buckets restaging cannot split).
	StreamProbes atomic.Int64
	// Renegotiations counts successful mid-join grant growths;
	// RenegotiationsDenied the growth requests the admission layer
	// refused; ExtraGrantBytes the total bytes obtained.
	Renegotiations       atomic.Int64
	RenegotiationsDenied atomic.Int64
	ExtraGrantBytes      atomic.Int64
	// PeakTableBytes is the high-water mark of concurrently reserved
	// probe memory (counted bytes). The grant-bound invariant is
	// PeakTableBytes ≤ grant + ExtraGrantBytes.
	PeakTableBytes atomic.Int64
	// RadixPasses is the scatter pass count of the bucketed joins,
	// always 1 since K is capped at MaxBuckets; Grace and hybrid-hash
	// still set it because the benchmark's per-layer trace reads it.
	RadixPasses atomic.Int64
}

// Fold merges another join's telemetry into t: every counter adds
// (including RadixPasses — passes are work performed, so shards' passes
// accumulate), while PeakTableBytes folds as a max, since each source's
// peak was measured against its own independent budget. A shard router
// folds per-shard telemetry into the request's shared struct this way.
func (t *JoinTelemetry) Fold(from *JoinTelemetry) {
	t.TempFiles.Add(from.TempFiles.Load())
	t.Restages.Add(from.Restages.Load())
	t.RestagedRefs.Add(from.RestagedRefs.Load())
	t.StreamProbes.Add(from.StreamProbes.Load())
	t.Renegotiations.Add(from.Renegotiations.Load())
	t.RenegotiationsDenied.Add(from.RenegotiationsDenied.Load())
	t.ExtraGrantBytes.Add(from.ExtraGrantBytes.Load())
	t.RadixPasses.Add(from.RadixPasses.Load())
	for {
		peak := from.PeakTableBytes.Load()
		cur := t.PeakTableBytes.Load()
		if peak <= cur || t.PeakTableBytes.CompareAndSwap(cur, peak) {
			return
		}
	}
}

// memLimiter enforces a join-wide byte budget over the in-memory
// structures the probes build. budget 0 means unbounded — reservations
// are accounted (so telemetry still reports the peak) but never denied
// and never wait.
type memLimiter struct {
	mu     sync.Mutex
	cond   *sync.Cond
	budget int64
	used   int64
	extra  int64 // budget grown via neg, given back by close
	neg    GrantNegotiator
	tel    *JoinTelemetry
}

func newMemLimiter(budget int64, neg GrantNegotiator, tel *JoinTelemetry) *memLimiter {
	if budget < 0 {
		budget = 0
	}
	if tel == nil {
		tel = &JoinTelemetry{}
	}
	l := &memLimiter{budget: budget, neg: neg, tel: tel}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// bounded reports whether the limiter enforces a budget.
func (l *memLimiter) bounded() bool { return l.budget > 0 }

// budgetNow reads the current budget (it grows under renegotiation).
func (l *memLimiter) budgetNow() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.budget
}

// reserve charges need bytes against the budget. A reservation that
// fits the budget but not alongside the current holders waits for a
// release — holders never wait while holding, so this cannot deadlock.
// A reservation that could never fit (need exceeds even a renegotiated
// budget) returns false without charging; the caller must then shrink
// its appetite (restage or stream) instead.
func (l *memLimiter) reserve(need int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.budget > 0 && l.used+need > l.budget {
		if need > l.budget {
			want := need - l.budget
			if l.neg != nil && l.neg.TryGrow(want) {
				l.budget += want
				l.extra += want
				l.tel.Renegotiations.Add(1)
				l.tel.ExtraGrantBytes.Add(want)
				continue
			}
			if l.neg != nil {
				l.tel.RenegotiationsDenied.Add(1)
			}
			return false
		}
		l.cond.Wait()
	}
	l.used += need
	for {
		cur := l.tel.PeakTableBytes.Load()
		if l.used <= cur || l.tel.PeakTableBytes.CompareAndSwap(cur, l.used) {
			break
		}
	}
	return true
}

// release returns bytes reserved earlier and wakes waiting probes.
func (l *memLimiter) release(bytes int64) {
	l.mu.Lock()
	l.used -= bytes
	l.mu.Unlock()
	l.cond.Broadcast()
}

// close gives every renegotiated byte back to the admission layer; Run
// defers it so the service's budget balances even on error paths.
func (l *memLimiter) close() {
	l.mu.Lock()
	extra := l.extra
	l.extra = 0
	l.budget -= extra
	l.mu.Unlock()
	if l.neg != nil && extra > 0 {
		l.neg.GiveBack(extra)
	}
}
