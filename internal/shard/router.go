package shard

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/mstore"
	"mmjoin/internal/relation"
)

// PlanFunc chooses the algorithm one shard executes when the request
// asks for join.Auto: it receives the shard's id, the shard's own
// measured workload, and the per-shard request (with the shard's share
// of the memory grant already folded into MRproc/MemGrant). Each shard
// plans independently — a skew-heavy shard may pick Grace while its
// uniform peers pick hybrid-hash — because the merged JoinStats are
// bit-identical regardless of which algorithm each shard runs.
type PlanFunc func(shardID string, w *relation.Workload, req mstore.JoinRequest) (join.Algorithm, error)

// Config parameterizes a Router.
type Config struct {
	// MapPath is recorded in Stats as the store's "dir" (description
	// only; the Router never re-reads the file).
	MapPath string
	// Replicas is the virtual-node count per shard on the routing ring
	// (0: 64).
	Replicas int
	// WorkersPerShard sizes each shard's private morsel pool
	// (0: GOMAXPROCS). Total CPU fan-out of one scatter-gather join is
	// shards × WorkersPerShard; on small hosts size it accordingly.
	WorkersPerShard int
	// PlanFunc enables join.Auto requests (nil: auto requests fail).
	PlanFunc PlanFunc
}

// handle is one mounted shard: its mapped database, its private exec
// pool, and the PR-4 drain discipline (register in-flight work under
// drainMu before checking the draining flag, so a drain can never
// return while a request is about to touch the mapping).
type handle struct {
	id   string
	dir  string
	d    int
	db   *mstore.DB
	pool *exec.Pool

	drainMu  sync.Mutex
	inflight sync.WaitGroup
	draining atomic.Bool

	wOnce sync.Once
	w     *relation.Workload
	wErr  error
}

// begin registers one unit of in-flight work, or reports false when the
// shard is draining. Callers that get true must call end().
func (h *handle) begin() bool {
	h.drainMu.Lock()
	defer h.drainMu.Unlock()
	if h.draining.Load() {
		return false
	}
	h.inflight.Add(1)
	return true
}

func (h *handle) end() { h.inflight.Done() }

// workload lazily derives (and caches) the shard's planner view; the
// first auto-planned join pays the scan.
func (h *handle) workload() (*relation.Workload, error) {
	h.wOnce.Do(func() { h.w, h.wErr = h.db.Workload() })
	return h.w, h.wErr
}

// Router is the scatter-gather serving tier: an mstore.Store over N
// independent mmap stores. Joins fan out to every live shard and fold;
// lookups route to exactly one shard via consistent hashing. Membership
// is dynamic — AddShard and RemoveShard (with per-shard drain) may run
// concurrently with serving.
type Router struct {
	cfg Config

	mu     sync.RWMutex
	shards []*handle // live membership, in add order
	ring   *ring
	closed bool
	// detached holds shards whose RemoveShard drain timed out: out of
	// the membership but not yet safely closable. Close sweeps them.
	detached []*handle
}

var (
	_ mstore.Store       = (*Router)(nil)
	_ mstore.ShardRunner = (*Router)(nil)
)

// Open mounts every shard in the map and assembles the router.
func Open(m *Map, cfg Config) (*Router, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = m.Replicas
	}
	if cfg.WorkersPerShard == 0 {
		cfg.WorkersPerShard = m.WorkersPerShard
	}
	r := &Router{cfg: cfg, ring: newRing(nil, cfg.Replicas)}
	for _, e := range m.Shards {
		if err := r.AddShard(e.ID, e.Dir, e.D); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// AddShard mounts one shard (opening its mapped database and starting
// its pool) and rebuilds the routing ring, moving ~1/N of the lookup
// keyspace onto the newcomer. Joins scattered after the add include the
// new shard's objects.
func (r *Router) AddShard(id, dir string, d int) error {
	db, err := mstore.OpenDB(dir, d)
	if err != nil {
		return fmt.Errorf("shard %q: %w", id, err)
	}
	h := &handle{id: id, dir: dir, d: d, db: db, pool: exec.NewPool(r.cfg.WorkersPerShard)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		h.pool.Close()
		db.Close()
		return fmt.Errorf("shard: router closed")
	}
	for _, old := range r.shards {
		if old.id == id {
			h.pool.Close()
			db.Close()
			return fmt.Errorf("shard: duplicate shard id %q", id)
		}
	}
	r.shards = append(r.shards, h)
	r.rebuildRingLocked()
	return nil
}

// RemoveShard drains one shard and unmounts it: the shard leaves the
// membership and the ring immediately (new joins exclude it, new
// lookups route around it), then the call waits for in-flight requests
// registered with the shard to finish before unmapping. A join that
// began before the removal still includes the shard; one that begins
// after does not. If ctx expires mid-drain the shard stays mapped (its
// requests still hold the mapping) and is released by Close.
func (r *Router) RemoveShard(ctx context.Context, id string) error {
	r.mu.Lock()
	var h *handle
	for i, s := range r.shards {
		if s.id == id {
			h = s
			r.shards = append(r.shards[:i], r.shards[i+1:]...)
			break
		}
	}
	if h == nil {
		r.mu.Unlock()
		return fmt.Errorf("shard: no shard %q", id)
	}
	r.rebuildRingLocked()
	r.mu.Unlock()

	// Flip the drain flag under drainMu: every request either
	// registered with inflight before this (and is waited for) or
	// observes the flag in begin() and skips the shard.
	h.drainMu.Lock()
	h.draining.Store(true)
	h.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		h.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		h.pool.Close()
		return h.db.Close()
	case <-ctx.Done():
		r.mu.Lock()
		r.detached = append(r.detached, h)
		r.mu.Unlock()
		return fmt.Errorf("shard: drain of %q interrupted: %w", id, ctx.Err())
	}
}

// rebuildRingLocked recomputes the ring from the live membership.
// Callers hold r.mu.
func (r *Router) rebuildRingLocked() {
	ids := make([]string, len(r.shards))
	for i, h := range r.shards {
		ids[i] = h.id
	}
	r.ring = newRing(ids, r.cfg.Replicas)
}

// snapshot returns the live membership and ring under the read lock.
func (r *Router) snapshot() ([]*handle, *ring, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, nil, fmt.Errorf("shard: router closed")
	}
	shards := make([]*handle, len(r.shards))
	copy(shards, r.shards)
	return shards, r.ring, nil
}

// Run implements mstore.Store: RunShards with the per-shard detail
// dropped.
func (r *Router) Run(req mstore.JoinRequest) (mstore.JoinStats, error) {
	st, _, err := r.RunShards(req)
	return st, err
}

// RunShards executes one join scatter-gather: every live shard runs the
// request over its own slice of R (with its own pool, its share of the
// memory grant, and its own temp subdirectory), and the per-shard
// JoinStats fold — commutative sums — into one merged result that is
// bit-identical to a single-store join over the same logical relation.
//
// Grant split: a positive req.MemGrant is divided evenly across the
// participating shards (each share floored at one page per partition
// goroutine), and each shard's MRproc is re-derived as share/D so K and
// resident-fraction derivations see the shard's true budget. req.Pool
// and req.Workers are ignored — each shard executes on its own pool.
// req.Telemetry, when set, receives the folded per-shard telemetry
// (counters sum, PeakTableBytes maxes).
//
// With req.Algorithm == join.Auto each shard plans independently
// through Config.PlanFunc against its own measured workload.
func (r *Router) RunShards(req mstore.JoinRequest) (mstore.JoinStats, []mstore.ShardJoinStat, error) {
	if req.Algorithm == join.Auto && r.cfg.PlanFunc == nil {
		return mstore.JoinStats{}, nil, fmt.Errorf("shard: auto requested but the router has no PlanFunc")
	}
	shards, _, err := r.snapshot()
	if err != nil {
		return mstore.JoinStats{}, nil, err
	}
	// Register with every shard's drain discipline up front, so the
	// participant set — and therefore the grant split — is fixed before
	// any work starts. Draining shards are excluded: the join computes
	// the post-removal logical relation.
	live := shards[:0]
	for _, h := range shards {
		if h.begin() {
			live = append(live, h)
		}
	}
	if len(live) == 0 {
		return mstore.JoinStats{}, nil, fmt.Errorf("shard: no live shards")
	}

	baseCtx := req.Ctx
	if baseCtx == nil {
		baseCtx = context.Background()
	}
	ctx, cancel := context.WithCancel(baseCtx)
	defer cancel()

	type result struct {
		stat mstore.ShardJoinStat
		tel  *mstore.JoinTelemetry
		err  error
	}
	results := make([]result, len(live))
	var wg sync.WaitGroup
	for i, h := range live {
		wg.Add(1)
		go func(i int, h *handle) {
			defer wg.Done()
			defer h.end()
			sub := req // per-shard copy
			sub.Ctx = ctx
			sub.Pool = h.pool
			sub.Workers = 0
			tel := &mstore.JoinTelemetry{}
			sub.Telemetry = tel
			if req.MemGrant > 0 {
				share := req.MemGrant / int64(len(live))
				if floor := int64(h.d) * 4096; share < floor {
					share = floor
				}
				sub.MemGrant = share
				sub.MRproc = share / int64(h.d)
			}
			if req.TmpDir != "" {
				sub.TmpDir = filepath.Join(req.TmpDir, "shard-"+h.id)
				if err := os.MkdirAll(sub.TmpDir, 0o755); err != nil {
					results[i] = result{err: fmt.Errorf("shard %q: %w", h.id, err)}
					cancel()
					return
				}
			}
			if sub.Algorithm == join.Auto {
				w, err := h.workload()
				if err == nil {
					sub.Algorithm, err = r.cfg.PlanFunc(h.id, w, sub)
				}
				if err != nil {
					results[i] = result{err: fmt.Errorf("shard %q: planning: %w", h.id, err)}
					cancel()
					return
				}
			}
			start := time.Now()
			st, err := h.db.Run(sub)
			if err != nil {
				results[i] = result{err: fmt.Errorf("shard %q: %w", h.id, err)}
				cancel()
				return
			}
			results[i] = result{
				stat: mstore.ShardJoinStat{
					Shard:          h.id,
					Algorithm:      sub.Algorithm.String(),
					Pairs:          st.Pairs,
					Signature:      st.Signature,
					ElapsedNs:      time.Since(start).Nanoseconds(),
					Restages:       tel.Restages.Load(),
					RestagedRefs:   tel.RestagedRefs.Load(),
					StreamProbes:   tel.StreamProbes.Load(),
					Renegotiations: tel.Renegotiations.Load(),
					PeakTableBytes: tel.PeakTableBytes.Load(),
					TempFiles:      tel.TempFiles.Load(),
				},
				tel: tel,
			}
		}(i, h)
	}
	wg.Wait()

	var merged mstore.JoinStats
	details := make([]mstore.ShardJoinStat, 0, len(live))
	for _, res := range results {
		if res.err != nil {
			return mstore.JoinStats{}, nil, res.err
		}
		merged.Fold(mstore.JoinStats{Pairs: res.stat.Pairs, Signature: res.stat.Signature})
		if req.Telemetry != nil {
			req.Telemetry.Fold(res.tel)
		}
		details = append(details, res.stat)
	}
	return merged, details, nil
}

// Lookup routes the (part, index) name to exactly one shard through the
// consistent-hash ring, validates the bounds against that shard — not
// against any global partition count — and dereferences there. The
// answering shard's id is returned in LookupResult.Shard.
func (r *Router) Lookup(part, index int) (mstore.LookupResult, error) {
	// A removal between taking the ring and registering with the owner
	// re-routes on a fresh ring; membership churn is bounded, so a few
	// retries always land on a live owner.
	for attempt := 0; attempt < 4; attempt++ {
		shards, ring, err := r.snapshot()
		if err != nil {
			return mstore.LookupResult{}, err
		}
		owner, ok := ring.owner(lookupKey(part, index))
		if !ok {
			return mstore.LookupResult{}, fmt.Errorf("shard: no live shards")
		}
		var h *handle
		for _, s := range shards {
			if s.id == owner {
				h = s
				break
			}
		}
		if h == nil || !h.begin() {
			continue // membership changed under us; re-route
		}
		res, err := r.lookupOn(h, part, index)
		h.end()
		return res, err
	}
	return mstore.LookupResult{}, fmt.Errorf("shard: lookup routing did not settle (membership churn)")
}

// lookupOn dereferences on one shard, validating against that shard's
// own partition count and sizes.
func (r *Router) lookupOn(h *handle, part, index int) (mstore.LookupResult, error) {
	if part < 0 || part >= h.db.D {
		return mstore.LookupResult{}, fmt.Errorf("%w: R%d, shard %q has [0,%d)",
			mstore.ErrPartRange, part, h.id, h.db.D)
	}
	if index < 0 || index >= h.db.R[part].Count() {
		return mstore.LookupResult{}, fmt.Errorf("%w: R%d[%d], shard %q partition has %d objects",
			mstore.ErrIndexRange, part, index, h.id, h.db.R[part].Count())
	}
	res, err := h.db.Lookup(part, index)
	if err != nil {
		return mstore.LookupResult{}, fmt.Errorf("shard %q: %w", h.id, err)
	}
	res.Shard = h.id
	return res, nil
}

// Workload merges the shards' workloads into one planner view of the
// logical relation: per-partition reference lists concatenate across
// shards and NR sums. When every shard reports the same D and NS the
// merge assumes the replicated-S layout Split produces and keeps NS
// (each shard references the same S); otherwise NS sums. The merged
// view is for costing only — per-shard planning (PlanFunc) sees each
// shard's exact workload instead.
func (r *Router) Workload() (*relation.Workload, error) {
	shards, _, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: no live shards")
	}
	var merged *relation.Workload
	replicated := true
	for _, h := range shards {
		if !h.begin() {
			continue
		}
		w, err := h.workload()
		h.end()
		if err != nil {
			return nil, fmt.Errorf("shard %q: %w", h.id, err)
		}
		if merged == nil {
			merged = &relation.Workload{Spec: w.Spec, Refs: make([][]relation.SPtr, w.Spec.D)}
			for i := range merged.Refs {
				if i < len(w.Refs) {
					merged.Refs[i] = append([]relation.SPtr(nil), w.Refs[i]...)
				}
			}
			continue
		}
		if w.Spec.D != merged.Spec.D || w.Spec.NS != merged.Spec.NS {
			replicated = false
		}
		merged.Spec.NR += w.Spec.NR
		if !replicated {
			merged.Spec.NS += w.Spec.NS
		}
		if w.Spec.D > merged.Spec.D {
			merged.Spec.D = w.Spec.D
			grown := make([][]relation.SPtr, w.Spec.D)
			copy(grown, merged.Refs)
			merged.Refs = grown
		}
		for i, refs := range w.Refs {
			merged.Refs[i] = append(merged.Refs[i], refs...)
		}
	}
	if merged == nil {
		return nil, fmt.Errorf("shard: no live shards")
	}
	return merged, nil
}

// CountR totals R objects over live shards.
func (r *Router) CountR() int {
	shards, _, err := r.snapshot()
	if err != nil {
		return 0
	}
	n := 0
	for _, h := range shards {
		n += h.db.CountR()
	}
	return n
}

// CountS totals S objects over live shards (counting every replica in
// the replicated-S layout).
func (r *Router) CountS() int {
	shards, _, err := r.snapshot()
	if err != nil {
		return 0
	}
	n := 0
	for _, h := range shards {
		n += h.db.CountS()
	}
	return n
}

// Stats describes the sharded layout: one ShardInfo per live shard,
// including each shard's private pool occupancy.
func (r *Router) Stats() mstore.StoreStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := mstore.StoreStats{Kind: "sharded", Dir: r.cfg.MapPath, Indexed: len(r.shards) > 0}
	for _, h := range r.shards {
		if !h.db.HasIndexes() {
			st.Indexed = false
		}
		info := mstore.ShardInfo{
			ID: h.id, Dir: h.dir, D: h.db.D, ObjSize: h.db.ObjSize,
			NR: h.db.CountR(), NS: h.db.CountS(),
			Draining: h.draining.Load(),
			Pool:     h.pool.Stats(),
		}
		st.Shards = append(st.Shards, info)
		st.NR += info.NR
		st.NS += info.NS
		if info.D > st.D {
			st.D = info.D
		}
		if st.ObjSize == 0 {
			st.ObjSize = info.ObjSize
		}
	}
	return st
}

// Close unmounts every shard (live and detached). Callers should drain
// the serving layer first; Close does not wait for in-flight joins.
func (r *Router) Close() error {
	r.mu.Lock()
	shards := append(r.shards, r.detached...)
	r.shards, r.detached = nil, nil
	closed := r.closed
	r.closed = true
	r.ring = newRing(nil, r.cfg.Replicas)
	r.mu.Unlock()
	if closed {
		return nil
	}
	var first error
	for _, h := range shards {
		h.pool.Close()
		if err := h.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
