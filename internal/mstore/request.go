package mstore

import (
	"context"
	"fmt"
	"math"
	"os"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/relation"
)

// JoinRequest selects and parameterizes one join over the mapped store,
// sharing the simulator's vocabulary (join.Request) so sim-join and
// real-join are configured with the same words:
//
//   - Algorithm is a join.Algorithm; the real store executes
//     NestedLoops, SortMerge, Grace, and HybridHash, plus IndexNL and
//     IndexMerge when the store carries persistent indexes
//     (TraditionalGrace exists only as an analytical baseline in the
//     simulator).
//   - MRproc is the per-goroutine private-memory grant in bytes, the
//     real-store analogue of join.Params.MRproc. Grace derives its
//     bucket count K from it with the simulator's rule
//     K = ⌈Fuzz·|RSi|·r / MRproc⌉, and hybrid-hash sizes its resident
//     S prefix as the part of an S partition that fits in MRproc.
//   - K and Fuzz override/tune that derivation exactly as in
//     join.Params.
//
// The pointer vocabularies map as follows: the simulator's
// relation.SPtr{Part, Index} addresses S objects by index, the store's
// SPtr{Part, Off} by byte offset into the partition segment; they are
// interchangeable through Relation.IndexOf(Off) and Relation.PtrAt(Index).
type JoinRequest struct {
	Algorithm join.Algorithm

	// MRproc is the private memory grant per partition goroutine, bytes.
	// Zero selects a grant large enough that Grace uses one bucket.
	MRproc int64

	// K is the Grace/hybrid-hash bucket count; 0 derives it from MRproc.
	K int
	// Fuzz is the hash-table overhead allowance in the K derivation;
	// 0 selects the simulator's default 1.2.
	Fuzz float64

	// ResidentFrac is the hybrid-hash resident fraction of each S
	// partition; 0 derives it from MRproc (negative forces 0).
	ResidentFrac float64

	// MemGrant is the join-wide probe-memory budget in bytes for
	// Grace/hybrid-hash: the total counted size of concurrently built
	// bucket tables (and stream-probe handle arrays) never exceeds it —
	// oversized buckets restage into sub-buckets on disk or stream
	// instead of overshooting. Zero derives D·MRproc (the sum of the
	// per-partition grants; unbounded when MRproc is 0 too); negative
	// disables the bound entirely.
	MemGrant int64

	// Telemetry, when non-nil, receives the join's memory-adaptation
	// counters (temp files, restages, stream probes, renegotiations,
	// peak table bytes). The struct must be zero-valued or the counts
	// accumulate across joins, which is also a supported use.
	Telemetry *JoinTelemetry

	// Negotiator, when non-nil, lets a join that discovers it was
	// under-granted ask for memory beyond MemGrant before it falls back
	// to restaging; everything obtained is given back when Run returns.
	Negotiator GrantNegotiator

	// TmpDir holds the temporary partition/bucket relations; "" creates
	// a fresh per-call directory under the db dir (removed on return).
	// An explicit TmpDir must be unique per concurrent Run call: bucket
	// file names are fixed, so two joins sharing a TmpDir corrupt each
	// other's temporaries.
	TmpDir string

	// Workers is the CPU parallelism: the size of the work-stealing pool
	// the join's morsels run on; 0 selects GOMAXPROCS. It is orthogonal
	// to the memory model — MRproc grants memory per data partition
	// (the paper's Rproc, a property of the layout and of the K/resident
	// derivations above), while Workers only decides how many OS threads
	// chew through the morsels, touching neither per-partition memory
	// nor the I/O pattern the cost model counts.
	Workers int

	// Pool, when non-nil, runs the join's morsels on a shared
	// work-stealing pool instead of an ephemeral one (Workers is then
	// ignored). A server points every in-flight join at one pool so total
	// CPU fan-out stays bounded by the host.
	Pool *exec.Pool

	// Ctx, when non-nil, cancels the join between morsels; nil means
	// context.Background().
	Ctx context.Context
}

// withDefaults folds derived defaults into the request, mirroring
// join.Params.withDefaults.
func (req *JoinRequest) withDefaults(db *DB) error {
	switch req.Algorithm {
	case join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash:
	case join.IndexNL, join.IndexMerge:
		if !db.HasIndexes() {
			return fmt.Errorf("mstore: %v needs persistent indexes (build them with mmdb index, or BuildIndexes)", req.Algorithm)
		}
	case join.TraditionalGrace:
		return fmt.Errorf("mstore: %v is an analytical baseline; the store executes pointer-based plans only", req.Algorithm)
	case join.Auto:
		return fmt.Errorf("mstore: auto needs a planning front-end (the service or a shard router), the store executes concrete algorithms only")
	default:
		return fmt.Errorf("mstore: unknown algorithm %v", req.Algorithm)
	}
	if req.MRproc < 0 {
		return fmt.Errorf("mstore: negative memory grant %d", req.MRproc)
	}
	if req.Fuzz == 0 {
		req.Fuzz = 1.2
	}
	if req.K <= 0 {
		req.K = db.deriveK(req.MRproc, req.Fuzz)
	} else if max := db.maxK(); req.K > max {
		// Bucket state (D·K count slots, up to D·K live temp relations)
		// is sized directly by K and is not covered by the MRproc grant,
		// so an explicit K is clamped to the same ceiling deriveK
		// enforces.
		req.K = max
	}
	if req.ResidentFrac == 0 {
		req.ResidentFrac = db.deriveResidentFrac(req.MRproc)
	}
	if req.ResidentFrac < 0 {
		req.ResidentFrac = 0
	}
	if req.ResidentFrac > 1 {
		req.ResidentFrac = 1
	}
	return nil
}

// deriveK applies the simulator's Grace rule K = ⌈fuzz·|RSi|·r/M⌉ with
// |RSi| = |R|/D (each partition's expected reference load).
func (db *DB) deriveK(mrproc int64, fuzz float64) int {
	if mrproc <= 0 {
		return 1
	}
	k := int(math.Ceil(fuzz * float64(db.CountR()) / float64(db.D) * float64(db.ObjSize) / float64(mrproc)))
	if k < 1 {
		k = 1
	}
	if max := db.maxK(); k > max {
		k = max
	}
	return k
}

// MaxBuckets caps the Grace/hybrid-hash bucket count K per S
// partition. The bucketed joins scatter once, straight into their
// buckets, so a join holds at most D·MaxBuckets live temp segments —
// each an open fd plus a mapping. A bucket that outgrows the probe
// grant at this cap is split by the restage path (probeEnv.restage).
// The model's urn-model thrash fan-out mirrors this cap.
const MaxBuckets = 256

// maxK is the largest useful bucket count: one bucket per expected
// reference in a partition (at least 1), capped at MaxBuckets.
func (db *DB) maxK() int {
	return min(max(db.CountR()/db.D, 1), MaxBuckets)
}

// deriveResidentFrac sizes the hybrid-hash resident prefix: the share of
// one S partition that fits in the per-goroutine grant.
func (db *DB) deriveResidentFrac(mrproc int64) float64 {
	if mrproc <= 0 {
		return 0
	}
	perPart := float64(db.CountS()) / float64(db.D) * float64(db.ObjSize)
	if perPart <= 0 {
		return 0
	}
	frac := float64(mrproc) / perPart
	if frac > 1 {
		frac = 1
	}
	return frac
}

// CountR returns the total number of R objects across partitions.
func (db *DB) CountR() int {
	n := 0
	for _, rel := range db.R {
		n += rel.Count()
	}
	return n
}

// CountS returns the total number of S objects across partitions.
func (db *DB) CountS() int {
	n := 0
	for _, rel := range db.S {
		n += rel.Count()
	}
	return n
}

// grantBudget resolves the effective probe-memory budget: an explicit
// MemGrant wins, zero derives D·MRproc (every partition goroutine's
// grant, pooled), and a negative MemGrant — or no MRproc to derive
// from — means unbounded (0).
func (req *JoinRequest) grantBudget(db *DB) int64 {
	switch {
	case req.MemGrant > 0:
		return req.MemGrant
	case req.MemGrant < 0:
		return 0
	case req.MRproc > 0:
		return req.MRproc * int64(db.D)
	}
	return 0
}

// Run validates the request, folds in derived defaults, and executes the
// selected algorithm over the mapped store. It is safe for concurrent
// use by multiple goroutines with the default TmpDir (each call gets a
// fresh temp directory; the base relations are only read); concurrent
// calls sharing req.Pool additionally share its CPU bound.
func (db *DB) Run(req JoinRequest) (JoinStats, error) {
	if err := req.withDefaults(db); err != nil {
		return JoinStats{}, err
	}
	if req.Workers < 0 {
		return JoinStats{}, fmt.Errorf("mstore: negative worker count %d", req.Workers)
	}
	if req.TmpDir == "" {
		dir, err := os.MkdirTemp(db.Dir, "tmp-")
		if err != nil {
			return JoinStats{}, err
		}
		defer os.RemoveAll(dir)
		req.TmpDir = dir
	}
	ctx := req.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	p := req.Pool
	if p == nil {
		p = exec.NewPool(req.Workers)
		defer p.Close()
	}
	lim := newMemLimiter(req.grantBudget(db), req.Negotiator, req.Telemetry)
	defer lim.close()
	switch req.Algorithm {
	case join.NestedLoops:
		return db.nestedLoops(ctx, p, req.TmpDir, lim)
	case join.SortMerge:
		return db.sortMerge(ctx, p, req.TmpDir, lim)
	case join.Grace:
		return db.grace(ctx, p, req.TmpDir, req.K, lim)
	case join.IndexNL:
		return db.indexNL(ctx, p, lim)
	case join.IndexMerge:
		return db.indexMerge(ctx, p, lim)
	default: // join.HybridHash, by withDefaults
		return db.hybridHash(ctx, p, req.TmpDir, req.K, req.ResidentFrac, lim)
	}
}

// Workload converts the stored relations into the simulator's workload
// form: the same partitioning, object sizes, and — crucially — the
// actual stored references, translated from byte offsets to indexes
// (relation.SPtr.Index = Relation.IndexOf(SPtr.Off)). The result lets
// the planner cost this exact database through planner.InputsFor with
// measured skew and distinct-reference counts rather than assumptions.
func (db *DB) Workload() (*relation.Workload, error) {
	if len(db.R) != db.D || len(db.S) != db.D {
		return nil, fmt.Errorf("mstore: %d/%d relations for D=%d", len(db.R), len(db.S), db.D)
	}
	w := &relation.Workload{
		Spec: relation.Spec{
			NR: db.CountR(), NS: db.CountS(),
			RSize: db.ObjSize, SSize: db.ObjSize,
			PtrSize: sptrBytes,
			D:       db.D,
		},
		Refs: make([][]relation.SPtr, db.D),
	}
	for i, rel := range db.R {
		refs := make([]relation.SPtr, rel.Count())
		for x := range refs {
			ptr := DecodeSPtr(rel.Object(x))
			if int(ptr.Part) >= db.D {
				return nil, fmt.Errorf("mstore: R%d[%d] points to partition %d", i, x, ptr.Part)
			}
			refs[x] = relation.SPtr{
				Part:  int32(ptr.Part),
				Index: int32(db.S[ptr.Part].IndexOf(ptr.Off)),
			}
		}
		w.Refs[i] = refs
	}
	return w, nil
}
