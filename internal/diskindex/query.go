package diskindex

import (
	"context"
	"encoding/binary"
	"errors"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/autotune"
	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/lsh"
	"e2lshos/internal/telemetry"
	"e2lshos/internal/vecmath"
)

// Stats records what one query did against the on-storage index, in the
// units the paper's analysis uses.
//
//lsh:counters
type Stats struct {
	// Radii is the number of (R,c)-NN rounds executed.
	Radii int
	// Probes counts table lookups attempted (L per radius).
	Probes int
	// NonEmptyProbes counts lookups whose occupancy bit was set; only these
	// cost I/O.
	NonEmptyProbes int
	// TableIOs counts hash-table block reads (one per non-empty probe).
	TableIOs int
	// BucketIOs counts logical bucket block reads, including chain blocks.
	BucketIOs int
	// EntriesScanned counts object infos decoded from fetched bucket blocks.
	// Checked + Duplicates + FPRejected ≤ EntriesScanned, with equality
	// whenever the budget did not cut a round short.
	EntriesScanned int
	// FPRejected counts entries dropped by the fingerprint check (§5.2):
	// u-bit collisions that are not 32-bit collisions.
	FPRejected int
	// Duplicates counts entries skipped because the object was already seen.
	Duplicates int
	// Checked counts distance computations.
	Checked int
	// CacheHits and CacheMisses count block-cache outcomes on the read path
	// (counted when the attached I/O engine holds a cache). Misses are the
	// reads that reached the backend, so with a cache the effective N_IO is
	// CacheMisses.
	CacheHits   int
	CacheMisses int
	// Prefetched counts blocks the engine's readahead pulled into the cache
	// for this query's radius rounds.
	Prefetched int
	// CoalescedReads counts backend reads the I/O engine saved by merging
	// runs of adjacent block addresses into single vectored operations
	// (counted when an engine is attached). The logical N_IO is unchanged;
	// these reads simply never became separate physical requests.
	CoalescedReads int
	// DedupedReads counts reads satisfied by joining another query's
	// in-flight backend read, singleflight style (counted when an engine is
	// attached).
	DedupedReads int
	// PhysicalReads counts the backend operations the I/O engine actually
	// issued for this query after coalescing and dedup (counted when an
	// engine is attached). CacheMisses remains the logical backend-reaching
	// count.
	PhysicalReads int
	// FaultedReads counts block reads that still failed after the I/O
	// layer's retries (storage faults only; cancellation is not a fault).
	FaultedReads int
	// SkippedChains counts bucket chains abandoned — or never entered —
	// because a block was unreadable: the degraded-mode skips.
	SkippedChains int
	// Partial is 1 when the query skipped any chain and thus served a
	// possibly-incomplete result, 0 for a complete answer. An int rather
	// than a bool so it folds through Merge like every other counter
	// (merged value = number of partial queries).
	Partial int
}

// IOs returns the total I/O count of the query (the paper's N_IO).
func (st Stats) IOs() int { return st.TableIOs + st.BucketIOs }

// storageFault reports whether err is a storage-layer failure the query
// should degrade around (skip the chain, keep serving) rather than abort
// on. Cancellation and deadline expiry are the caller giving up — they
// propagate. ErrInvalidAddr is index corruption or a caller bug — hiding
// it behind a partial result would mask real breakage, so it propagates
// too. Everything else (EIO after retries, checksum mismatch, quarantined
// block) is the device's fault, and one dead block must not take down the
// whole query.
func storageFault(err error) bool {
	return err != nil &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, blockstore.ErrInvalidAddr)
}

// skipChain records one abandoned chain in st.
func (st *Stats) skipChain() {
	st.FaultedReads++
	st.SkippedChains++
	st.Partial = 1
}

// Searcher executes queries synchronously against the store's data plane:
// no virtual time, just block reads, one at a time, stopping the moment a
// round's budget is spent. It is the reference implementation the serving
// WaveSearcher and the asynchronous engine path are tested against, and the
// I/O-count oracle for the Fig 3–8 analyses; it is not on the serving path. All per-query scratch (projection buffer, hash
// buffer, epoch-stamped visited array, block buffer, top-k accumulator) is
// searcher-owned, so the SearchInto path allocates nothing per query after
// warmup. Not safe for concurrent use; create one per worker.
type Searcher struct {
	ix     *Index
	proj   []float64
	hashes []uint32
	seen   []uint32
	epoch  uint32
	topk   *ann.TopK
	buf    []byte
	// multiProbe > 0 probes each table's base bucket plus this many
	// perturbed neighbors (§8 extension; see lsh.PerturbationSets). On
	// storage, extra probes trade I/O for recall without growing the index.
	multiProbe int
	floors     []int64
	fracs      []float64
	pfloors    []int64
	// Readahead scratch (cache.go): next-round hashes, a projection buffer
	// for per-radius families, and the in-flight prefetch handle.
	nextHashes []uint32
	raProj     []float64
	pending    *blockcache.Handle
	// trace is the active sampled-query span buffer (nil for unsampled
	// queries, which is almost always). ioNS accumulates demand-read time
	// across a round so the round's verify time can be computed as the
	// remainder — reads and distance checks interleave inside probeBucket,
	// so they cannot be bracketed separately.
	trace *telemetry.Trace
	ioNS  time.Duration
	// ctl is the active autotune controller (nil for uncontrolled queries).
	ctl *autotune.Ctl
}

// SetTrace installs the span buffer the next query records into (nil
// disables tracing). The owner sets it per query; the searcher never
// outlives its trace.
func (s *Searcher) SetTrace(tr *telemetry.Trace) { s.trace = tr }

// SetController installs the autotune controller the next query consults
// per radius round (nil disables control).
func (s *Searcher) SetController(c *autotune.Ctl) { s.ctl = c }

// NewSearcher returns a fresh synchronous searcher. Safe to call while
// updates run: sizing the dedup arena reads the dataset length under the
// update lock (search() regrows it if inserts land later anyway).
func (ix *Index) NewSearcher() *Searcher {
	u := ix.upd
	u.mu.RLock()
	n := len(ix.data)
	u.mu.RUnlock()
	s := &Searcher{
		ix:     ix,
		proj:   make([]float64, ix.params.L*ix.params.M),
		hashes: make([]uint32, ix.params.L),
		seen:   make([]uint32, n),
		buf:    make([]byte, ix.bucketBufBytes()),
	}
	if ix.readahead > 0 {
		s.nextHashes = make([]uint32, ix.params.L)
		if !ix.opts.ShareProjections {
			s.raProj = make([]float64, ix.params.L*ix.params.M)
		}
	}
	return s
}

// SetMultiProbe enables Multi-Probe querying with t extra probes per table
// (t = 0 restores classic probing).
func (s *Searcher) SetMultiProbe(t int) {
	if t < 0 {
		panic("diskindex: negative multi-probe count")
	}
	s.multiProbe = t
	if t > 0 && s.floors == nil {
		s.floors = make([]int64, s.ix.params.L*s.ix.params.M)
		s.fracs = make([]float64, s.ix.params.L*s.ix.params.M)
		s.pfloors = make([]int64, s.ix.params.M)
	}
}

// Search answers a top-k query by walking the on-storage index, mirroring
// the in-memory reference algorithm table by table (§5.4 steps 1–3, executed
// sequentially). It returns the neighbors and the per-query statistics.
func (s *Searcher) Search(q []float32, k int) (ann.Result, Stats, error) {
	//lsh:ctxok ctx-free convenience wrapper; cancellation lives in SearchContext
	return s.SearchContext(context.Background(), q, k)
}

// SearchContext is Search with cancellation: ctx is checked between radius
// rounds, so a long ladder walk aborts cleanly. On cancellation it returns
// the neighbors accumulated so far together with ctx.Err().
func (s *Searcher) SearchContext(ctx context.Context, q []float32, k int) (ann.Result, Stats, error) {
	st, err := s.search(ctx, q, k)
	return s.topk.ResultSq(), st, err
}

// SearchInto is SearchContext with caller-owned result backing: the
// returned neighbors are appended into dst[:0], so a worker looping over
// queries with a reused dst allocates nothing per query after warmup.
func (s *Searcher) SearchInto(ctx context.Context, q []float32, k int, dst []ann.Neighbor) (ann.Result, Stats, error) {
	st, err := s.search(ctx, q, k)
	return ann.Result{Neighbors: s.topk.AppendResultSq(dst[:0])}, st, err
}

// search runs the ladder, leaving the winners (keyed by squared distance)
// in s.topk; on an I/O error the accumulator is emptied. The whole query
// holds the index's update lock shared, so a concurrent Insert/Delete
// (which holds it exclusively) is observed either fully applied across all
// its chains or not at all — never a torn chain.
func (s *Searcher) search(ctx context.Context, q []float32, k int) (Stats, error) {
	u := s.ix.upd
	u.mu.RLock()
	defer u.mu.RUnlock()
	if n := len(s.ix.data); n > len(s.seen) {
		// Inserts grew the dataset past this searcher's dedup array.
		grown := make([]uint32, n)
		copy(grown, s.seen)
		s.seen = grown
	}
	st, err := s.searchContext(ctx, q, k)
	if s.pending != nil {
		// Settle readahead issued for a round the ladder never entered, so
		// no prefetch work outlives the query and the stats stay exact. On
		// cancellation the engine's walk stops between waves.
		st.Prefetched += int(s.pending.Wait())
		s.pending = nil
	}
	return st, err
}

func (s *Searcher) searchContext(ctx context.Context, q []float32, k int) (Stats, error) {
	ix := s.ix
	ix.checkDim(q)
	p := ix.params
	var st Stats
	s.epoch++
	if s.epoch == 0 {
		clear(s.seen)
		s.epoch = 1
	}
	if s.topk == nil {
		s.topk = ann.NewTopK(k)
	} else {
		s.topk.Reset(k)
	}
	topk := s.topk
	if ix.opts.ShareProjections {
		ix.families[0].ProjectInto(s.proj, q)
	}
	//lsh:ladder
	for rIdx, radius := range p.Radii {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if s.pending != nil {
			// The readahead issued while the previous round was verifying;
			// by now it has usually drained, so this settles the count.
			st.Prefetched += int(s.pending.Wait())
			s.pending = nil
		}
		mp, budgetS, readahead := s.multiProbe, p.S, true
		if c := s.ctl; c != nil {
			kn, proceed := c.BeforeRound(rIdx, p.S)
			if !proceed {
				break
			}
			budgetS, readahead = kn.BudgetS, kn.Readahead
			// Never raise multi-probe above what the searcher sized its
			// floor arenas for.
			if kn.MultiProbe < mp {
				mp = kn.MultiProbe
			}
		}
		st.Radii++
		tr := s.trace
		roundStart := tr.Clock()
		fam := ix.FamilyFor(rIdx)
		if !ix.opts.ShareProjections {
			fam.ProjectInto(s.proj, q)
		}
		if mp > 0 {
			fam.FloorsAt(s.proj, radius, s.floors, s.fracs)
			for l := 0; l < p.L; l++ {
				s.hashes[l] = fam.CombineFloors(l, s.floors[l*p.M:(l+1)*p.M])
			}
		} else {
			fam.HashesAt(s.proj, radius, s.hashes)
		}
		projEnd := tr.Clock()
		var stBefore Stats
		if tr.Active() {
			stBefore = st
			s.ioNS = 0
		}
		if readahead && ix.readahead > 0 && rIdx+1 < p.R() {
			ix.roundHashes(q, rIdx+1, s.proj, s.raProj, s.nextHashes)
			s.pending = ix.prefetchRound(ctx, rIdx+1, s.nextHashes)
		}
		checked := 0
	tables:
		for l := 0; l < p.L; l++ {
			full, err := s.probeBucket(rIdx, l, s.hashes[l], q, topk, &st, &checked, budgetS)
			if err != nil {
				topk.Reset(k)
				return st, err
			}
			if full {
				break tables
			}
			if mp == 0 {
				continue
			}
			fracs := s.fracs[l*p.M : (l+1)*p.M]
			base := s.floors[l*p.M : (l+1)*p.M]
			for _, set := range lsh.PerturbationSets(fracs, mp) {
				copy(s.pfloors, base)
				for _, pert := range set {
					s.pfloors[pert.Coord] += int64(pert.Delta)
				}
				full, err := s.probeBucket(rIdx, l, ix.FamilyFor(rIdx).CombineFloors(l, s.pfloors), q, topk, &st, &checked, budgetS)
				if err != nil {
					topk.Reset(k)
					return st, err
				}
				if full {
					break tables
				}
			}
		}
		if tr.Active() {
			// The round's reads and distance checks interleave inside
			// probeBucket, so I/O time is accumulated read-by-read (s.ioNS)
			// and verify time is the remainder of the table walk.
			end := tr.Clock()
			verify := end - projEnd - s.ioNS
			if verify < 0 {
				verify = 0
			}
			tr.Add(telemetry.StageProject, rIdx, roundStart, projEnd-roundStart, 0, 0)
			tr.Add(telemetry.StageIO, rIdx, projEnd, s.ioNS,
				int64(st.TableIOs+st.BucketIOs-stBefore.TableIOs-stBefore.BucketIOs),
				int64(st.CacheHits-stBefore.CacheHits))
			tr.Add(telemetry.StageVerify, rIdx, projEnd, verify, int64(st.Checked-stBefore.Checked), 0)
			tr.Add(telemetry.StageRound, rIdx, roundStart, end-roundStart,
				int64(st.Probes-stBefore.Probes), int64(st.NonEmptyProbes-stBefore.NonEmptyProbes))
		}
		cr := p.C * radius
		certified := topk.CountWithin(cr * cr)
		if topk.Full() && certified >= k {
			break
		}
		if c := s.ctl; c != nil && c.AfterRound(rIdx, topk, certified) {
			break
		}
	}
	if c := s.ctl; c != nil {
		c.EndLadder(topk, st.Radii, p.R())
	}
	return st, nil
}

// probeBucket walks one bucket's chain, verifying fingerprint-matched
// candidates with partial-distance pruning against the current k-th squared
// distance (exact; see vecmath.SqDistBounded), and reports whether the
// per-radius budget was exhausted.
//
//lsh:hotpath
func (s *Searcher) probeBucket(rIdx, l int, h uint32, q []float32, topk *ann.TopK, st *Stats, checked *int, budget int) (bool, error) {
	ix := s.ix
	st.Probes++
	idx, fp := lsh.SplitHash(h, ix.u)
	if !ix.isOccupied(rIdx, l, idx) {
		return false, nil
	}
	st.NonEmptyProbes++
	head, err := s.readTableEntry(rIdx, l, idx, st)
	if err != nil {
		if storageFault(err) {
			// Unreadable table block after the I/O layer's retries: skip
			// this bucket rather than fail the query (degraded mode). The
			// candidates already pushed from other buckets stand.
			st.skipChain()
			return false, nil
		}
		return false, err
	}
	addr := head
	for addr != blockstore.Nil {
		t0 := s.trace.Clock()
		if err := ix.readLogicalBlock(addr, s.buf, st); err != nil {
			if storageFault(err) {
				// Abandon the rest of this chain; entries scanned from its
				// earlier blocks already reached the accumulator and stay.
				st.skipChain()
				return false, nil
			}
			return false, err
		}
		if s.trace != nil {
			s.ioNS += s.trace.Clock() - t0
		}
		st.BucketIOs++
		next, count := bucketHeader(s.buf)
		off := HeaderBytes
		for i := 0; i < count; i++ {
			st.EntriesScanned++
			id, efp := ix.unpackEntry(getUint40(s.buf[off:]))
			off += EntryBytes
			if efp != fp {
				st.FPRejected++
				continue
			}
			if s.seen[id] == s.epoch {
				st.Duplicates++
				continue
			}
			s.seen[id] = s.epoch
			if sq, ok := vecmath.SqDistBounded(ix.data[id], q, topk.Worst()); ok {
				topk.Push(id, sq)
			}
			st.Checked++
			*checked++
			if *checked >= budget {
				return true, nil
			}
		}
		addr = next
	}
	return false, nil
}

// readTableEntry fetches the bucket head address for table (r,l) entry idx.
//
//lsh:hotpath
func (s *Searcher) readTableEntry(r, l int, idx uint32, st *Stats) (blockstore.Addr, error) {
	blk, off := s.ix.tableEntryBlock(r, l, idx)
	t0 := s.trace.Clock()
	if err := s.ix.readBlock(blk, s.buf[:blockstore.BlockSize], st); err != nil {
		return 0, err
	}
	if s.trace != nil {
		s.ioNS += s.trace.Clock() - t0
	}
	st.TableIOs++
	return blockstore.Addr(binary.LittleEndian.Uint64(s.buf[off : off+8])), nil
}
