// Package memindex implements in-memory E2LSH: the original Datar et al.
// algorithm adapted to top-k c-ANNS by probing a geometric ladder of search
// radii (paper §2.3). It is both the paper's in-memory baseline and the
// algorithmic reference for the external-memory E2LSHoS index, which shares
// its hash family and parameters and must return identical candidates.
package memindex

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"e2lshos/internal/ann"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
	"e2lshos/internal/offheap"
)

// Options configure index construction beyond the algorithmic parameters.
type Options struct {
	// ShareProjections reuses one set of projection vectors across all radii
	// (rescaled per radius), computing each dot product once per object. See
	// DESIGN.md; disable to reproduce the fully independent original scheme.
	ShareProjections bool
	// Seed drives hash function generation. Two indexes built with the same
	// data, parameters and seed are identical.
	Seed int64
}

// DefaultOptions returns the options used by the experiment harness.
func DefaultOptions() Options {
	return Options{ShareProjections: true, Seed: 1}
}

// table is one frozen hash table: bucket hashes sorted ascending, with
// starts[i]:starts[i+1] delimiting the object IDs of bucket keys[i].
type table struct {
	keys   []uint32
	starts []int32
	ids    []uint32
}

// bucket returns the object IDs hashed to h, or nil for an empty bucket.
func (t *table) bucket(h uint32) []uint32 {
	i, ok := slices.BinarySearch(t.keys, h)
	if !ok {
		return nil
	}
	return t.ids[t.starts[i]:t.starts[i+1]]
}

// Index is a frozen in-memory E2LSH index.
type Index struct {
	params   lsh.Params
	opts     Options
	data     [][]float32
	families []*lsh.Family // one if shared, else one per radius
	tables   [][]table     // [radius][l]
}

// Params returns the parameters the index was built with.
func (ix *Index) Params() lsh.Params { return ix.params }

// Data returns the indexed vectors.
func (ix *Index) Data() [][]float32 { return ix.data }

// FamilyFor returns the hash family used at radius index rIdx.
func (ix *Index) FamilyFor(rIdx int) *lsh.Family {
	if ix.opts.ShareProjections {
		return ix.families[0]
	}
	return ix.families[rIdx]
}

// IndexBytes estimates the DRAM footprint of the hash index (keys, starts and
// id slabs across all tables), the quantity that limits in-memory E2LSH
// (§3.5).
func (ix *Index) IndexBytes() int64 {
	var b int64
	for _, radius := range ix.tables {
		for i := range radius {
			t := &radius[i]
			b += int64(len(t.keys))*4 + int64(len(t.starts))*4 + int64(len(t.ids))*4
		}
	}
	return b
}

// Build constructs the index over data with the given derived parameters.
func Build(data [][]float32, p lsh.Params, opts Options) (*Index, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("memindex: empty dataset")
	}
	if len(data) != p.N {
		return nil, fmt.Errorf("memindex: params derived for n=%d but dataset has %d", p.N, len(data))
	}
	if len(data[0]) != p.Dim {
		return nil, fmt.Errorf("memindex: params derived for dim=%d but dataset has %d", p.Dim, len(data[0]))
	}
	if p.R() == 0 {
		return nil, fmt.Errorf("memindex: empty radius schedule")
	}
	ix := &Index{params: p, opts: opts, data: data}
	fams, err := lsh.NewFamilies(p, opts.ShareProjections, opts.Seed)
	if err != nil {
		return nil, err
	}
	ix.families = fams
	if err := ix.buildTables(); err != nil {
		return nil, err
	}
	return ix, nil
}

// Keys holds the 32-bit compound hash of every object at every (radius,
// table) pair: one slab of L·n keys per radius, allocated through
// internal/offheap, so on unix the keys live outside the Go heap and each
// radius's slab goes back to the operating system the moment it is freed.
// The owner frees every slab it holds, on every return path: FreeAll after
// use, or Free(r) as soon as radius r is no longer needed.
type Keys struct {
	n   int
	mem [][]byte // per radius: the slab, table l's keys at [4·l·n, 4·(l+1)·n); nil once freed
}

// keySlabBytes counts the bytes of key slabs allocated and not yet freed.
var keySlabBytes atomic.Int64

// KeySlabBytes reports the bytes held by key slabs that have not been freed,
// on or off the Go heap: zero whenever no HashKeys result is in use.
func KeySlabBytes() int64 { return keySlabBytes.Load() }

// Table returns the keys of table l at radius r, indexed by object ID. The
// slice is valid only until Free(r) or FreeAll.
func (k *Keys) Table(r, l int) []uint32 {
	return k.slab(r)[l*k.n : (l+1)*k.n]
}

// slab views radius r's slab as keys (nil once freed). Both sides of
// offheap.Alloc align it for uint32.
func (k *Keys) slab(r int) []uint32 {
	if k.mem[r] == nil {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&k.mem[r][0])), len(k.mem[r])/4)
}

// Free releases radius r's slab; a second call does nothing.
func (k *Keys) Free(r int) {
	if k.mem[r] == nil {
		return
	}
	// A slab that fails to unmap stays mapped and counted, and the counter
	// shows the leak.
	if offheap.Free(k.mem[r]) == nil {
		keySlabBytes.Add(-int64(len(k.mem[r])))
	}
	k.mem[r] = nil
}

// FreeAll releases every slab still held.
func (k *Keys) FreeAll() {
	for r := range k.mem {
		k.Free(r)
	}
}

// HashKeys computes the 32-bit compound hash of every object for every
// (radius, table) pair, object-parallel across GOMAXPROCS workers. It is
// shared by the in-memory and on-storage index builders so both observe
// identical hashes. All R slabs are filled at once, because shared
// projections are computed once per object and re-quantized at every radius;
// the caller owns them from then on and must free each one (Keys).
func HashKeys(data [][]float32, families []*lsh.Family, p lsh.Params, share bool) (*Keys, error) {
	n := len(data)
	keys := &Keys{n: n, mem: make([][]byte, p.R())}
	for r := range keys.mem {
		b, err := offheap.Alloc(p.L * n * 4)
		if err != nil {
			keys.FreeAll()
			return nil, fmt.Errorf("memindex: hash keys: %w", err)
		}
		keySlabBytes.Add(int64(len(b)))
		keys.mem[r] = b
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var proj [4][]float64
			for k := range proj {
				proj[k] = make([]float64, p.L*p.M)
			}
			scratch := families[0].BatchScratch()
			hashes := make([]uint32, p.L)
			for obj := lo; obj < hi; obj += 4 {
				vs := data[obj:min(obj+4, hi)]
				for r := 0; r < p.R(); r++ {
					fam := families[0]
					if !share {
						fam = families[r]
					}
					// Shared projections are computed once and re-quantized
					// at every radius; four vectors take one pass over the
					// matrix, a shorter tail one pass each.
					if r == 0 || !share {
						if len(vs) == 4 {
							fam.ProjectBatch(&proj, (*[4][]float32)(vs), scratch)
						} else {
							for k, v := range vs {
								fam.Project(v, proj[k])
							}
						}
					}
					slab := keys.slab(r)
					for k := range vs {
						fam.HashesAtBulk(proj[k], p.Radii[r], hashes)
						for l := 0; l < p.L; l++ {
							slab[l*n+obj+k] = hashes[l]
						}
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return keys, nil
}

// buildTables hashes every object at every radius and freezes the buckets.
// Work is parallelized over objects (hash computation) and then over tables
// (sorting), both deterministic. The key slabs are freed before it returns.
func (ix *Index) buildTables() error {
	p := ix.params
	keys, err := HashKeys(ix.data, ix.families, p, ix.opts.ShareProjections)
	if err != nil {
		return err
	}
	defer keys.FreeAll()

	// Freeze each table, table-parallel.
	ix.tables = make([][]table, p.R())
	for r := range ix.tables {
		ix.tables[r] = make([]table, p.L)
	}
	type job struct{ r, l int }
	jobs := make(chan job)
	var tw sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		tw.Add(1)
		go func() {
			defer tw.Done()
			for j := range jobs {
				ix.tables[j.r][j.l] = freezeTable(keys.Table(j.r, j.l))
			}
		}()
	}
	for r := 0; r < p.R(); r++ {
		for l := 0; l < p.L; l++ {
			jobs <- job{r, l}
		}
	}
	close(jobs)
	tw.Wait()
	return nil
}

// freezeTable turns the per-object hash array into a sorted bucket table.
func freezeTable(hashes []uint32) table {
	n := len(hashes)
	pairs := make([]uint64, n)
	for id, h := range hashes {
		pairs[id] = uint64(h)<<32 | uint64(id)
	}
	slices.Sort(pairs)
	t := table{ids: make([]uint32, n)}
	var lastKey uint32
	for i, pk := range pairs {
		h := uint32(pk >> 32)
		id := uint32(pk)
		if i == 0 || h != lastKey {
			t.keys = append(t.keys, h)
			t.starts = append(t.starts, int32(i))
			lastKey = h
		}
		t.ids[i] = id
	}
	t.starts = append(t.starts, int32(n))
	return t
}

// BucketVisitFn observes every non-empty bucket visit of a query: size is
// the bucket's total entry count, read is how many entries the search
// actually consumed before moving on. The I/O models for finite block sizes
// are built on this hook.
type BucketVisitFn func(size, read int)

// Searcher answers queries against an Index through the shared ladder driver
// (internal/ladder), which owns all per-query scratch: projection and hash
// buffers, the epoch-stamped visited array and the reused top-k accumulator.
// After its first query a Searcher's steady state allocates nothing per query
// on the SearchInto path. It carries no per-query configuration — k, budget,
// multi-probe, trace and controller arrive with each Run — so one Searcher
// can serve differently-tuned queries back to back. Not safe for concurrent
// use; create one per worker.
type Searcher struct {
	ix      *Index
	lad     *ladder.Driver
	onVisit BucketVisitFn
}

// NewSearcher returns a fresh searcher over the index.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{
		ix:  ix,
		lad: ladder.New(ix.params, ix.families, ix.opts.ShareProjections, len(ix.data), 1),
	}
}

// OnBucketVisit installs an observer called once per non-empty bucket visit.
func (s *Searcher) OnBucketVisit(fn BucketVisitFn) { s.onVisit = fn }

// Search runs top-k c-ANNS for the query with the index's built-in budget
// and classic probing, and returns the neighbors found together with the
// per-query statistics. It terminates at the first radius R where k neighbors
// within c·R have been found, or after exhausting the radius schedule (§2.3).
func (s *Searcher) Search(q []float32, k int) (ann.Result, ladder.Stats) {
	//lsh:ctxok ctx-free convenience wrapper; cancellation lives in SearchContext
	res, st, _ := s.SearchContext(context.Background(), q, k)
	return res, st
}

// SearchContext is Search with cancellation: ctx is checked between radius
// rounds, so a long ladder walk aborts cleanly. On cancellation it returns
// the neighbors accumulated so far together with ctx.Err().
func (s *Searcher) SearchContext(ctx context.Context, q []float32, k int) (ann.Result, ladder.Stats, error) {
	return s.Run(ctx, q, ladder.Knobs{K: k}, nil)
}

// SearchInto is SearchContext with caller-owned result backing; see Run.
func (s *Searcher) SearchInto(ctx context.Context, q []float32, k int, dst []ann.Neighbor) (ann.Result, ladder.Stats, error) {
	return s.Run(ctx, q, ladder.Knobs{K: k}, dst)
}

// Run answers one query under the given per-query knobs: a candidate budget
// other than the index's S (the paper's §3.3 accuracy knob, no rebuild
// needed), Multi-Probe LSH (each table additionally probes its most promising
// neighboring buckets, buying recall without enlarging the index), a span
// trace, an autotune controller. The returned neighbors are appended into
// dst[:0] (growing it only if its capacity is below the neighbors found; nil
// asks for fresh backing), so a worker looping over queries with a reused
// dst allocates nothing per query after warmup.
func (s *Searcher) Run(ctx context.Context, q []float32, kn ladder.Knobs, dst []ann.Neighbor) (ann.Result, ladder.Stats, error) {
	err := s.lad.Run(ctx, s, q, s.ix.data, kn)
	s.lad.IOsAtInf = 2 * s.lad.NonEmptyProbes
	return ann.Result{Neighbors: s.lad.AppendResult(dst[:0])}, s.lad.Stats, err
}

// BeginRound implements ladder.Rounds; in memory a round needs no set-up.
func (s *Searcher) BeginRound(context.Context, int, bool) {}

// Visit implements ladder.Rounds: it scans one bucket, offering every entry
// to the driver's verification, and reports whether the per-radius budget
// was exhausted.
//
//lsh:hotpath
func (s *Searcher) Visit(r, l int, h uint32) (bool, error) {
	ids := s.ix.tables[r][l].bucket(h)
	if len(ids) == 0 {
		return false, nil
	}
	lad := s.lad
	lad.NonEmptyProbes++
	for i, id := range ids {
		lad.EntriesScanned++
		if lad.Verify(id) {
			if s.onVisit != nil {
				s.onVisit(len(ids), i+1)
			}
			return true, nil
		}
	}
	if s.onVisit != nil {
		s.onVisit(len(ids), len(ids))
	}
	return false, nil
}

// EndRound implements ladder.Rounds; buckets were verified as visited.
func (s *Searcher) EndRound(int) (ladder.IO, error) { return ladder.IO{}, nil }
