package mstore

import "encoding/binary"

// The flat probe table replaces the per-bucket Go map of the probe
// stage. Layout, per bucket of n references:
//
//	heads [slots]int32  — open-addressing slot → chain head (ref index)
//	keys  [slots]Ptr    — slot → the S offset stored there
//	next  [n]int32      — ref index → next ref sharing the key
//	dkeys [≤n]Ptr       — the distinct S offsets, ascending after build
//	dhead [≤n]int32     — chain head per distinct key
//
// with power-of-two slots at ≤3/4 load factor and linear probing. All
// five arrays are carved from one worker's reusable probeArena, so the
// steady-state probe path performs zero allocations (the go-bench suite
// asserts 0 allocs/op); a Go map allocated per bucket is churn the GC
// pays for on every one of the D·K probe tasks.
//
// Reference indexes are int32 — a single bucket is limited to 2^31
// references, the same bound the sort-merge and stream-probe handle
// arrays already impose (a bucket that size would need a ≥32 GiB grant
// to build a table at all).
type probeArena struct {
	heads []int32
	keys  []Ptr
	next  []int32
	dkeys []Ptr
	dhead []int32
}

func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growPtr(s []Ptr, n int) []Ptr {
	if cap(s) < n {
		return make([]Ptr, n)
	}
	return s[:n]
}

// tableSlots is the open-addressing slot count for n references: the
// smallest power of two holding n at ≤3/4 load factor (minimum 8).
func tableSlots(n int) int64 {
	s := int64(8)
	for s*3 < int64(n)*4 {
		s <<= 1
	}
	return s
}

// hashPtr mixes an S offset into the slot distribution. Offsets are
// multiples of the object size, so the identity's low bits are
// degenerate; a Fibonacci multiply plus a fold spreads them.
func hashPtr(p Ptr) uint64 {
	x := uint64(p) * 0x9e3779b97f4a7c15
	return x ^ (x >> 29)
}

// sortKeyedHeads heap-sorts the parallel (keys, heads) arrays by key,
// in place and without closures, so the distinct-key sweep stays
// allocation-free.
func sortKeyedHeads(keys []Ptr, heads []int32) {
	n := len(keys)
	for i := n/2 - 1; i >= 0; i-- {
		siftKeyedHeads(keys, heads, i, n)
	}
	for end := n - 1; end > 0; end-- {
		keys[0], keys[end] = keys[end], keys[0]
		heads[0], heads[end] = heads[end], heads[0]
		siftKeyedHeads(keys, heads, 0, end)
	}
}

func siftKeyedHeads(keys []Ptr, heads []int32, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && keys[child+1] > keys[child] {
			child++
		}
		if keys[root] >= keys[child] {
			return
		}
		keys[root], keys[child] = keys[child], keys[root]
		heads[root], heads[child] = heads[child], heads[root]
		root = child
	}
}

// probeFlat joins one sealed bucket through a flat table carved from
// the worker's arena. Build chains the references per distinct S
// offset; the sweep orders the distinct offsets ascending so each S
// object is read once, sequentially; the probe runs in batches — the
// gather loop issues a batch of S-side reads back-to-back before the
// fold loop walks each offset's chain. Chains are built by prepending;
// the commutative Signature fold makes that order invisible.
func (k *joinKernel) probeFlat(a *probeArena, rel *Relation, st *JoinStats) {
	n := rel.Count()
	if n == 0 {
		return
	}
	view, base, size := rel.seg.data, int64(rel.data), rel.size
	slots := int(tableSlots(n))
	mask := uint64(slots - 1)
	a.heads = grow32(a.heads, slots)
	a.keys = growPtr(a.keys, slots)
	a.next = grow32(a.next, n)
	heads, keys, next := a.heads, a.keys, a.next
	for i := range heads {
		heads[i] = -1
	}
	distinct := 0
	for x := 0; x < n; x++ {
		key := Ptr(binary.LittleEndian.Uint64(view[base+int64(x)*size+4:]))
		h := hashPtr(key) & mask
		for {
			head := heads[h]
			if head < 0 {
				heads[h] = int32(x)
				keys[h] = key
				next[x] = -1
				distinct++
				break
			}
			if keys[h] == key {
				next[x] = head
				heads[h] = int32(x)
				break
			}
			h = (h + 1) & mask
		}
	}

	a.dkeys = growPtr(a.dkeys, distinct)
	a.dhead = grow32(a.dhead, distinct)
	dkeys, dhead := a.dkeys, a.dhead
	i := 0
	for h := 0; h < slots; h++ {
		if heads[h] >= 0 {
			dkeys[i], dhead[i] = keys[h], heads[h]
			i++
		}
	}
	sortKeyedHeads(dkeys, dhead)

	// Every reference in a bucket names one S partition; read it off the
	// first record.
	sview := k.sv[binary.LittleEndian.Uint32(view[base:])]
	pairs := int64(0)
	var sw [GatherWidth]uint64
	for lo := 0; lo < distinct; lo += GatherWidth {
		hi := min(lo+GatherWidth, distinct)
		for i := lo; i < hi; i++ { // gather
			sw[i-lo] = binary.LittleEndian.Uint64(sview[dkeys[i]:])
		}
		for i := lo; i < hi; i++ { // fold: walk the key's chain
			w := sw[i-lo]
			for x := dhead[i]; x >= 0; x = next[x] {
				rid := binary.LittleEndian.Uint64(view[base+int64(x)*size+ridOffset:])
				st.Signature += pairHash(rid, w)
				pairs++
			}
		}
	}
	st.Pairs += pairs
}
