package operators

import (
	"sort"

	"shareddb/internal/par"
)

// Data-parallel helpers for the blocking operators' Finish phases (paper
// §4.2: "blocking operators ... can be easily parallelized by partitioning
// the data"). The design constraint throughout is that parallel execution
// must be observationally identical per query to serial execution: sorts
// keep exact stable order, aggregations keep per-group input order (float
// sums accumulate in the same sequence), and joins keep per-key build order.

// minParallelSortLen is the input size below which a parallel sort is not
// worth the fork/join overhead and the serial stable sort runs instead.
const minParallelSortLen = 1024

// minParallelAggLen is the buffered-tuple count below which the group-by
// aggregation and the join build fall back to their serial paths. The
// parallel paths allocate nothing per tuple, but they pay a fixed cost per
// generation — two partition passes plus three fork/joins — that small
// generations (the common case) would not earn back. A var so tests can
// lower it to exercise the parallel paths with small inputs.
var minParallelAggLen = 1024

// stableSortTuples sorts tuples by less with the exact semantics of
// sort.SliceStable. With workers > 1 and enough input it runs a partitioned
// sort: contiguous chunks are stable-sorted in parallel (on pool; nil = the
// package default) and then k-way merged, breaking ties toward the lower
// chunk index — which reproduces the serial stable order bit-for-bit.
func stableSortTuples(tuples []sortedTuple, less func(a, b *sortedTuple) bool, workers int, pool *par.Pool) []sortedTuple {
	n := len(tuples)
	if workers <= 1 || n < minParallelSortLen {
		sort.SliceStable(tuples, func(i, j int) bool { return less(&tuples[i], &tuples[j]) })
		return tuples
	}
	bounds := par.Split(n, workers)
	chunks := make([][]sortedTuple, len(bounds)-1)
	pool.Do(workers, len(chunks), func(i int) {
		c := tuples[bounds[i]:bounds[i+1]]
		sort.SliceStable(c, func(a, b int) bool { return less(&c[a], &c[b]) })
		chunks[i] = c
	})
	// K-way merge. Ties resolve to the lowest chunk index (only a strictly
	// smaller head displaces the current best), so equal keys are emitted in
	// original arrival order — the stability contract.
	out := make([]sortedTuple, 0, n)
	heads := make([]int, len(chunks))
	for len(out) < n {
		best := -1
		for ci := range chunks {
			if heads[ci] >= len(chunks[ci]) {
				continue
			}
			if best < 0 || less(&chunks[ci][heads[ci]], &chunks[best][heads[best]]) {
				best = ci
			}
		}
		out = append(out, chunks[best][heads[best]])
		heads[best]++
	}
	return out
}

// routedTuple is one buffered tuple's reference in a hash partition: its key
// hash, the tuple itself (borrowed from a batch retained until Finish), and
// the index of its batch in the partitioned input, through which a consumer
// finds the batch's stream configuration.
type routedTuple struct {
	hash  uint64
	t     *Tuple
	batch int32
}

// hashPartition routes the tuples buffered by a blocking operator into
// key-hash buckets (h % parts on the precomputed 64-bit key hash, see
// hashtab.go), so each group/build bucket is owned by exactly one worker and
// no cross-worker combine of per-key state is ever needed. It is shared by
// the group-by's parallel aggregation and the hash join's parallel build.
//
// Routing is count-then-fill. Workers hash contiguous chunks of the input
// batches once, counting tuples per (chunk, bucket); a prefix sum lays the
// buckets out back to back in one flat array, each bucket's chunk runs in
// chunk order; a second pass writes every tuple's reference into its slot.
// Chunks are contiguous, so each bucket holds its tuples in arrival order.
// Every array is reused across cycles: once warmed, routing allocates
// nothing per tuple.
type hashPartition struct {
	hashes  []uint64 // per input tuple, in arrival order
	offsets []int    // index in hashes of each batch's first tuple
	cursors []int    // per (chunk, bucket): tuple count, then write cursor
	bounds  []int    // bucket b is routed[bounds[b]:bounds[b+1]]
	routed  []routedTuple
}

// resize returns s with length n, reusing its backing array when it can.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// route partitions the tuples of batches into parts buckets by
// hash(batch index, tuple) % parts, running both passes on up to parts
// goroutines of pool.
func (p *hashPartition) route(pool *par.Pool, parts int, batches []*Batch, hash func(batch int, t *Tuple) uint64) {
	p.offsets = resize(p.offsets, len(batches)+1)
	n := 0
	for bi, b := range batches {
		p.offsets[bi] = n
		n += len(b.Tuples)
	}
	p.offsets[len(batches)] = n
	p.hashes = resize(p.hashes, n)
	p.routed = resize(p.routed, n)
	nchunks := min(parts, len(batches))
	// Chunks count concurrently: keep their counters a cache line apart.
	stride := parts + 8
	p.cursors = resize(p.cursors, nchunks*stride)
	clear(p.cursors)
	chunk := func(ci int) (lo, hi int) {
		return len(batches) * ci / nchunks, len(batches) * (ci + 1) / nchunks
	}
	pool.Do(parts, nchunks, func(ci int) {
		counts := p.cursors[ci*stride : ci*stride+parts]
		lo, hi := chunk(ci)
		for bi := lo; bi < hi; bi++ {
			tuples := batches[bi].Tuples
			hs := p.hashes[p.offsets[bi]:p.offsets[bi+1]]
			for ti := range tuples {
				h := hash(bi, &tuples[ti])
				hs[ti] = h
				counts[h%uint64(parts)]++
			}
		}
	})
	p.bounds = resize(p.bounds, parts+1)
	at := 0
	for b := 0; b < parts; b++ {
		p.bounds[b] = at
		for ci := 0; ci < nchunks; ci++ {
			k := ci*stride + b
			at, p.cursors[k] = at+p.cursors[k], at
		}
	}
	p.bounds[parts] = at
	pool.Do(parts, nchunks, func(ci int) {
		cursors := p.cursors[ci*stride : ci*stride+parts]
		lo, hi := chunk(ci)
		for bi := lo; bi < hi; bi++ {
			tuples := batches[bi].Tuples
			for ti, h := range p.hashes[p.offsets[bi]:p.offsets[bi+1]] {
				k := h % uint64(parts)
				p.routed[cursors[k]] = routedTuple{hash: h, t: &tuples[ti], batch: int32(bi)}
				cursors[k]++
			}
		}
	})
}

// bucket returns bucket b of the last route, in arrival order.
func (p *hashPartition) bucket(b int) []routedTuple {
	return p.routed[p.bounds[b]:p.bounds[b+1]]
}

// release drops the routed tuple references, so the retained batches
// recycle without being pinned by the partition.
func (p *hashPartition) release() {
	clear(p.routed)
}
