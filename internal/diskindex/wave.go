package diskindex

import (
	"context"
	"encoding/binary"

	"e2lshos/internal/ann"
	"e2lshos/internal/autotune"
	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/lsh"
	"e2lshos/internal/telemetry"
	"e2lshos/internal/vecmath"
)

// WaveSearcher is the serving searcher. Per search radius it collects every
// probe of the round — each table's base bucket and, with multi-probe, its
// perturbed neighbors — fetches them as waves through Index.readBatch (all
// table-entry blocks, then one wave per chain depth), and only then verifies
// candidates in probe order under the budget. How many of a wave's reads are
// in flight at once — the paper's "many parallel read requests" — is the
// attached ioengine's queue depth; without an engine the wave is read in
// line, one block after another, on the calling goroutine.
//
// The neighbors are bitwise those of the reference Searcher (same
// SetMultiProbe): verification visits the same entries in the same order
// under the same budget. The I/O counts differ only where the budget cuts a
// round short — the reference stops reading at that point, a wave has
// already fetched the whole round.
//
// A WaveSearcher is safe for use by one goroutine at a time; run several
// concurrently to batch queries, matching §6's multithreaded setup.
type WaveSearcher struct {
	ix     *Index
	proj   []float64
	hashes []uint32
	seen   []uint32
	epoch  uint32
	topk   *ann.TopK
	// multiProbe > 0 probes each table's base bucket plus this many
	// perturbed neighbors; see Searcher.multiProbe.
	multiProbe int
	floors     []int64
	fracs      []float64
	pfloors    []int64
	// Per-round arenas, sized for every probe a round can issue and reused
	// across the searcher's queries: the probes (and their ids backing), one
	// logical-block buffer per probe, and the flattened addr/buf slices of
	// the current wave.
	probeBuf []probe
	probes   []*probe
	bufs     [][]byte
	addrs    []blockstore.Addr
	dsts     [][]byte
	live     []*probe
	heads    []blockstore.Addr
	offs     []int
	// Readahead scratch (cache.go), mirroring Searcher's.
	nextHashes []uint32
	raProj     []float64
	pending    *blockcache.Handle
	// trace is the active sampled-query span buffer (nil for unsampled
	// queries).
	trace *telemetry.Trace
	// ctl is the active autotune controller (nil for uncontrolled queries).
	ctl *autotune.Ctl
}

// SetTrace installs the span buffer the next query records into (nil
// disables tracing).
func (s *WaveSearcher) SetTrace(tr *telemetry.Trace) { s.trace = tr }

// SetController installs the autotune controller the next query consults
// per radius round (nil disables control).
func (s *WaveSearcher) SetController(c *autotune.Ctl) { s.ctl = c }

// NewWaveSearcher creates a searcher. Safe to call while updates run: the
// dedup arena is sized under the update lock (search() regrows it if inserts
// land later anyway). The I/O engine may be attached before or after.
func (ix *Index) NewWaveSearcher() *WaveSearcher {
	u := ix.upd
	u.mu.RLock()
	n := len(ix.data)
	u.mu.RUnlock()
	s := &WaveSearcher{
		ix:         ix,
		proj:       make([]float64, ix.params.L*ix.params.M),
		hashes:     make([]uint32, ix.params.L),
		seen:       make([]uint32, n),
		nextHashes: make([]uint32, ix.params.L),
	}
	if !ix.opts.ShareProjections {
		s.raProj = make([]float64, ix.params.L*ix.params.M)
	}
	s.sizeArenas(ix.params.L)
	return s
}

// SetMultiProbe enables Multi-Probe querying with t extra probes per table
// (t = 0 restores classic probing).
func (s *WaveSearcher) SetMultiProbe(t int) {
	if t < 0 {
		panic("diskindex: negative multi-probe count")
	}
	s.multiProbe = t
	p := s.ix.params
	if t > 0 && s.floors == nil {
		s.floors = make([]int64, p.L*p.M)
		s.fracs = make([]float64, p.L*p.M)
		s.pfloors = make([]int64, p.M)
	}
	s.sizeArenas(p.L * (1 + t))
}

// sizeArenas makes room for a round of up to n probes.
func (s *WaveSearcher) sizeArenas(n int) {
	if n <= len(s.probeBuf) {
		return
	}
	phys := s.ix.physPerBucket
	s.probeBuf = append(s.probeBuf, make([]probe, n-len(s.probeBuf))...)
	for len(s.bufs) < n {
		s.bufs = append(s.bufs, make([]byte, s.ix.bucketBufBytes()))
	}
	s.probes = make([]*probe, 0, n)
	s.live = make([]*probe, 0, n)
	s.heads = make([]blockstore.Addr, 0, n)
	s.offs = make([]int, 0, n)
	s.addrs = make([]blockstore.Addr, 0, n*phys)
	s.dsts = make([][]byte, 0, n*phys)
}

// probe is one occupied bucket to fetch during a radius round.
type probe struct {
	l   int
	idx uint32
	fp  uint32
	ids []uint32 // fingerprint-matched object ids, filled by the fetch phase
}

// Search answers a top-k query.
func (s *WaveSearcher) Search(q []float32, k int) (ann.Result, Stats, error) {
	//lsh:ctxok ctx-free convenience wrapper; cancellation lives in SearchContext
	return s.SearchContext(context.Background(), q, k)
}

// SearchContext is Search with cancellation: ctx is checked between radius
// rounds, before each fetch, so a long ladder walk aborts cleanly. On
// cancellation it returns the neighbors accumulated so far with ctx.Err().
func (s *WaveSearcher) SearchContext(ctx context.Context, q []float32, k int) (ann.Result, Stats, error) {
	st, err := s.search(ctx, q, k)
	return s.topk.ResultSq(), st, err
}

// SearchInto is SearchContext with caller-owned result backing: the
// returned neighbors are appended into dst[:0].
func (s *WaveSearcher) SearchInto(ctx context.Context, q []float32, k int, dst []ann.Neighbor) (ann.Result, Stats, error) {
	st, err := s.search(ctx, q, k)
	return ann.Result{Neighbors: s.topk.AppendResultSq(dst[:0])}, st, err
}

// search runs the ladder, leaving the winners (keyed by squared distance)
// in s.topk; on an I/O error the accumulator is emptied. The whole query
// holds the index's update lock shared; see Searcher.search for the
// torn-chain argument.
func (s *WaveSearcher) search(ctx context.Context, q []float32, k int) (Stats, error) {
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
		// See Searcher.search: settle readahead for unentered rounds.
		st.Prefetched += int(s.pending.Wait())
		s.pending = nil
	}
	return st, err
}

func (s *WaveSearcher) searchContext(ctx context.Context, q []float32, k int) (Stats, error) {
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
			// Never raise multi-probe above what the arenas were sized for.
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
		} else {
			fam.HashesAt(s.proj, radius, s.hashes)
		}
		projEnd := tr.Clock()
		var stBefore Stats
		if tr.Active() {
			stBefore = st
		}
		if readahead && ix.readahead > 0 && rIdx+1 < p.R() {
			ix.roundHashes(q, rIdx+1, s.proj, s.raProj, s.nextHashes)
			s.pending = ix.prefetchRound(ctx, rIdx+1, s.nextHashes)
		}

		// Collect the round's occupied buckets in the reference prober's
		// order: table by table, base bucket first, then its perturbations.
		s.probes = s.probes[:0]
		for l := 0; l < p.L; l++ {
			if mp == 0 {
				s.addProbe(rIdx, l, s.hashes[l], &st)
				continue
			}
			base := s.floors[l*p.M : (l+1)*p.M]
			s.addProbe(rIdx, l, fam.CombineFloors(l, base), &st)
			for _, set := range lsh.PerturbationSets(s.fracs[l*p.M:(l+1)*p.M], mp) {
				copy(s.pfloors, base)
				for _, pert := range set {
					s.pfloors[pert.Coord] += int64(pert.Delta)
				}
				s.addProbe(rIdx, l, fam.CombineFloors(l, s.pfloors), &st)
			}
		}
		fetchStart := tr.Clock()
		if err := s.fetch(rIdx, &st); err != nil {
			topk.Reset(k)
			return st, err
		}
		fetchEnd := tr.Clock()
		// Verify phase: deterministic, in probe order, under the budget.
		checked := 0
	verify:
		for _, pr := range s.probes {
			for _, id := range pr.ids {
				if s.seen[id] == s.epoch {
					st.Duplicates++
					continue
				}
				s.seen[id] = s.epoch
				if sq, ok := vecmath.SqDistBounded(ix.data[id], q, topk.Worst()); ok {
					topk.Push(id, sq)
				}
				st.Checked++
				checked++
				if checked >= budgetS {
					break verify
				}
			}
		}
		if tr.Active() {
			end := tr.Clock()
			tr.Add(telemetry.StageProject, rIdx, roundStart, projEnd-roundStart, 0, 0)
			tr.Add(telemetry.StageIO, rIdx, fetchStart, fetchEnd-fetchStart,
				int64(st.TableIOs+st.BucketIOs-stBefore.TableIOs-stBefore.BucketIOs),
				int64(st.CacheHits-stBefore.CacheHits))
			tr.Add(telemetry.StageVerify, rIdx, fetchEnd, end-fetchEnd, int64(st.Checked-stBefore.Checked), 0)
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

// addProbe counts one table lookup and, when its bucket is occupied, appends
// it to the round's probe list.
//
//lsh:hotpath
func (s *WaveSearcher) addProbe(rIdx, l int, h uint32, st *Stats) {
	st.Probes++
	idx, fp := lsh.SplitHash(h, s.ix.u)
	if !s.ix.isOccupied(rIdx, l, idx) {
		return
	}
	st.NonEmptyProbes++
	pr := &s.probeBuf[len(s.probes)]
	*pr = probe{l: l, idx: idx, fp: fp, ids: pr.ids[:0]}
	s.probes = append(s.probes, pr)
}

// fetch is the round's fetch phase: every probe's table-entry block as one
// wave, then every live chain's current logical block as one wave per chain
// depth, until all chains drain. With an engine attached each wave is one
// vectored submission, so adjacent blocks coalesce (a logical block spanning
// several physical blocks contributes adjacent addresses), concurrent
// queries dedup, and the backend sees the configured queue depth. It fills
// each probe's fingerprint-matched ids and folds the I/O, entry and engine
// counters into st. A chain cut short by an unreadable block is skipped
// (degraded mode); the ids it collected before the cut still verify.
//
//lsh:hotpath
func (s *WaveSearcher) fetch(rIdx int, st *Stats) error {
	probes := s.probes
	if len(probes) == 0 {
		return nil
	}
	ix := s.ix
	var bst ioengine.BatchStats

	// Wave 0: all table-entry blocks, stashing each probe's head-pointer
	// byte offset for the decode loop.
	addrs, dsts, offs := s.addrs[:0], s.dsts[:0], s.offs[:0]
	for i, pr := range probes {
		blk, off := ix.tableEntryBlock(rIdx, pr.l, pr.idx)
		addrs = append(addrs, blk)
		offs = append(offs, off)
		dsts = append(dsts, s.bufs[i][:blockstore.BlockSize])
	}
	tr := s.trace
	waveStart := tr.Clock()
	ok, err := ix.readBatch(addrs, dsts, 1, &bst)
	if err != nil {
		return err
	}
	if tr.Active() {
		tr.Add(telemetry.StageIOWait, rIdx, waveStart, tr.Clock()-waveStart,
			int64(len(addrs)), int64(bst.PhysicalReads))
	}
	physSeen := bst.PhysicalReads
	live, heads := s.live[:0], s.heads[:0]
	for i, pr := range probes {
		if ok != nil && !ok[i] {
			st.skipChain()
			continue
		}
		st.TableIOs++
		head := blockstore.Addr(binary.LittleEndian.Uint64(s.bufs[i][offs[i] : offs[i]+8]))
		if head != blockstore.Nil {
			live = append(live, pr)
			heads = append(heads, head)
		}
	}

	// Chain waves: one logical bucket block per live probe.
	phys := ix.physPerBucket
	for len(live) > 0 {
		addrs, dsts = addrs[:0], dsts[:0]
		for i := range live {
			for b := 0; b < phys; b++ {
				addrs = append(addrs, heads[i]+blockstore.Addr(b))
				dsts = append(dsts, s.bufs[i][b*blockstore.BlockSize:(b+1)*blockstore.BlockSize])
			}
		}
		waveStart = tr.Clock()
		ok, err = ix.readBatch(addrs, dsts, phys, &bst)
		if err != nil {
			return err
		}
		if tr.Active() {
			tr.Add(telemetry.StageIOWait, rIdx, waveStart, tr.Clock()-waveStart,
				int64(len(addrs)), int64(bst.PhysicalReads-physSeen))
			physSeen = bst.PhysicalReads
		}
		// live and heads compact in place: position i is consumed before any
		// position ≤ i is rewritten.
		nextLive, nextHeads := live[:0], heads[:0]
		for i, pr := range live {
			if ok != nil && !ok[i] {
				st.skipChain()
				continue
			}
			st.BucketIOs++
			buf := s.bufs[i]
			next, count := bucketHeader(buf)
			st.EntriesScanned += count
			off := HeaderBytes
			for e := 0; e < count; e++ {
				id, efp := ix.unpackEntry(getUint40(buf[off:]))
				off += EntryBytes
				if efp != pr.fp {
					st.FPRejected++
					continue
				}
				pr.ids = append(pr.ids, id)
			}
			if next != blockstore.Nil {
				nextLive = append(nextLive, pr)
				nextHeads = append(nextHeads, next)
			}
		}
		live, heads = nextLive, nextHeads
	}
	foldBatchStats(st, bst)
	return nil
}
