package diskindex

import (
	"context"
	"encoding/binary"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
	"e2lshos/internal/telemetry"
	"e2lshos/internal/vecmath"
)

// WaveSearcher is the serving searcher. Per search radius it collects every
// probe of the round — each table's base bucket and, with multi-probe, its
// perturbed neighbors — and reads them in probe order, in slices. With an
// ioengine attached, or under the simulator's scheduler, a round is one
// slice, its reads overlapped at the engine's queue depth (the paper's "many
// parallel read requests"); in line, where nothing overlaps, a slice is one
// probe. A slice is read as waves through Index.readBatch: its table-entry
// blocks, then one wave per chain depth. After each wave it verifies
// candidates in probe order under the budget, as far as the chains read so
// far allow, and once the budget decides the round it reads nothing more.
//
// The neighbors are bitwise those of the reference Searcher under the same
// knobs: verification visits the same entries in the same order under the
// same budget. In line the blocks read and the entries counted are the
// reference's too. A whole-round slice reads ahead of verification, so where
// the budget cuts a round short it has read every table block of the round
// and its chains to the deciding wave's depth: never fewer blocks, and every
// entry it decoded counted.
//
// A WaveSearcher is safe for use by one goroutine at a time; run several
// concurrently to batch queries, matching §6's multithreaded setup.
type WaveSearcher struct {
	searcher
	// Per-round arenas, sized for every probe a round can issue and reused
	// across the searcher's queries: the probes (and their ids backing), one
	// logical-block buffer per probe, the flattened addr/buf slices of the
	// current wave, and the round's candidates in verification order (grown
	// to the largest round seen).
	probeBuf []probe
	probes   []*probe
	bufs     [][]byte
	addrs    []blockstore.Addr
	dsts     [][]byte
	live     []*probe
	heads    []slot
	offs     []int
	cands    []candidate
	// The round's verification cursor: the next probe to verify, and how
	// many of its ids are already verified.
	vp, vi int
	// whole makes a round one slice even without an engine, as the
	// simulator's scheduler issues it; inline is set for a fetch whose
	// slices are one probe.
	whole, inline bool
	// read fetches one wave; it is Index.readBatch except under the
	// virtual-time engine, which suspends the query there (see sim.go).
	// bst is the running fetch's engine outcome, a field so that passing
	// it through read does not move it to the heap. wait and waitN sum the
	// round's wave waits on the trace clock and their blocks (0 untraced).
	read  func(addrs []blockstore.Addr, dsts [][]byte, group int, bst *ioengine.BatchStats) ([]bool, error)
	bst   ioengine.BatchStats
	wait  time.Duration
	waitN int64
}

// NewWaveSearcher creates a searcher. The I/O engine may be attached before
// or after.
func (ix *Index) NewWaveSearcher() *WaveSearcher {
	s := &WaveSearcher{}
	s.init(ix, s)
	s.sizeArenas(ix.params.L)
	s.read = ix.readBatch
	return s
}

// Run answers one query under the given per-query knobs; see searcher.Run.
// It first makes room for the probes multi-probe adds to a round (the
// promoted Search wrappers never multi-probe and run on the constructor's
// sizing).
func (s *WaveSearcher) Run(ctx context.Context, q []float32, kn ladder.Knobs, dst []ann.Neighbor) (ann.Result, Stats, error) {
	s.sizeArenas(s.ix.params.L * (1 + kn.MultiProbe))
	return s.searcher.Run(ctx, q, kn, dst)
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
	s.heads = make([]slot, 0, n)
	s.offs = make([]int, 0, n)
	s.addrs = make([]blockstore.Addr, 0, n*phys)
	s.dsts = make([][]byte, 0, n*phys)
}

// probe is one occupied bucket to fetch during a radius round.
type probe struct {
	l   int
	idx uint32
	fp  uint32
	hi  int      // end of the entry range of its chain block decoded last
	ids []uint32 // fingerprint-matched object ids, filled as the chain is read
}

// BeginRound implements ladder.Rounds: on top of the shared readahead step
// it empties the round's probe list.
func (s *WaveSearcher) BeginRound(ctx context.Context, r int, readahead bool) {
	s.searcher.BeginRound(ctx, r, readahead)
	s.probes = s.probes[:0]
}

// EndRound implements ladder.Rounds: the round's probes are read as waves
// and verified as their blocks land; see fetch. In line, where a wave is one
// block, a traced round's waves are one StageIOWait span, so that a long
// query's spans fit its trace.
//
//lsh:hotpath
func (s *WaveSearcher) EndRound(r int) (ladder.IO, error) {
	st, tr := &s.lad.Stats, s.lad.Trace()
	start, ios, hits := tr.Clock(), st.IOs(), st.CacheHits
	if err := s.fetch(r, st); err != nil {
		return ladder.IO{}, err
	}
	if !tr.Active() {
		return ladder.IO{}, nil
	}
	if s.inline && s.waitN > 0 {
		tr.Add(telemetry.StageIOWait, r, start, s.wait, s.waitN, 0)
	}
	return ladder.IO{Wait: s.wait, Blocks: int64(st.IOs() - ios), CacheHits: int64(st.CacheHits - hits)}, nil
}

// candidate is one bucket entry of a round, in verification order, with the
// vector the driver will check (nil when Driver.Skips it).
type candidate struct {
	id  uint32
	vec []float32
}

// verifyAhead is how many candidates ahead of the one being verified
// verify prefetches: enough verifications to cover a DRAM miss, few enough
// that the lines are still cached when their turn comes.
const verifyAhead = 16

// Visit implements ladder.Rounds: when the probed bucket is occupied it joins
// the round's probe list; nothing is read until EndRound.
//
//lsh:hotpath
func (s *WaveSearcher) Visit(r, l int, h uint32) (bool, error) {
	idx, fp := lsh.SplitHash(h, s.ix.u)
	if !s.ix.isOccupied(r, l, idx) {
		return false, nil
	}
	s.lad.NonEmptyProbes++
	pr := &s.probeBuf[len(s.probes)]
	*pr = probe{l: l, idx: idx, fp: fp, ids: pr.ids[:0]}
	s.probes = append(s.probes, pr)
	return false, nil
}

// fetch is the round's read-and-verify loop. It reads the round's probes in
// slices (see WaveSearcher): each slice's table-entry blocks as one wave,
// then every live chain's current logical block as one wave per chain
// depth, until the slice's chains drain or the round is decided. After each
// wave it runs verify, and once the driver reports the round decided no
// further wave or slice is issued. With an engine attached each wave is one
// vectored submission, so adjacent blocks coalesce (a logical block spanning
// several physical blocks contributes adjacent addresses), a block probed
// twice in one wave is read once, and the backend sees the configured queue
// depth. It fills each probe's fingerprint-matched ids and folds the I/O,
// entry and engine counters into st. A chain cut short by an unreadable
// block is skipped (degraded mode); the ids it collected before the cut
// still verify.
//
//lsh:hotpath
func (s *WaveSearcher) fetch(rIdx int, st *Stats) error {
	s.wait, s.waitN = 0, 0
	ix, probes := s.ix, s.probes
	s.inline = ix.ioeng == nil && !s.whole
	w := len(probes)
	if s.inline {
		w = 1
	}
	bst := &s.bst
	*bst = ioengine.BatchStats{}
	s.vp, s.vi = 0, 0
	phys := ix.physPerBucket
	decided := false
	for from := 0; from < len(probes) && !decided; from += w {
		slice := probes[from : from+min(w, len(probes)-from)]
		end := from + len(slice)
		// Table wave, stashing each probe's slot byte offset for the decode.
		addrs, dsts, offs := s.addrs[:0], s.dsts[:0], s.offs[:0]
		for i, pr := range slice {
			blk, off := ix.tableEntryBlock(rIdx, pr.l, pr.idx)
			addrs = append(addrs, blk)
			offs = append(offs, off)
			dsts = append(dsts, s.bufs[i][:blockstore.BlockSize])
		}
		ok, err := s.readWave(rIdx, addrs, dsts, 1)
		if err != nil {
			return err
		}
		live, heads := s.live[:0], s.heads[:0]
		for i, pr := range slice {
			if ok != nil && !ok[i] {
				skipChain(st)
				continue
			}
			st.TableIOs++
			sl := decodeSlot(binary.LittleEndian.Uint64(s.bufs[i][offs[i] : offs[i]+8]))
			if sl.addr != blockstore.Nil {
				live = append(live, pr)
				heads = append(heads, sl)
			}
		}

		// Chain waves: one logical bucket block per live probe. s.heads holds
		// the wave's slots while it is read, for the simulator's scan charge.
		for decided = s.verify(live, end); !decided && len(live) > 0; decided = s.verify(live, end) {
			addrs, dsts = addrs[:0], dsts[:0]
			for i := range live {
				for b := 0; b < phys; b++ {
					addrs = append(addrs, heads[i].addr+blockstore.Addr(b))
					dsts = append(dsts, s.bufs[i][b*blockstore.BlockSize:(b+1)*blockstore.BlockSize])
				}
			}
			s.heads = heads
			ok, err = s.readWave(rIdx, addrs, dsts, phys)
			if err != nil {
				return err
			}
			// live and heads compact in place: position i is consumed before
			// any position ≤ i is rewritten.
			nextLive, nextHeads := live[:0], heads[:0]
			for i, pr := range live {
				if ok != nil && !ok[i] {
					skipChain(st)
					continue
				}
				st.BucketIOs++
				buf := s.bufs[i]
				next, lo, hi := heads[i].span(buf)
				s.lad.EntriesScanned += hi - lo
				off := HeaderBytes + lo*EntryBytes
				for e := lo; e < hi; e++ {
					id, efp := ix.unpackEntry(getUint40(buf[off:]))
					off += EntryBytes
					if efp != pr.fp {
						st.FPRejected++
						continue
					}
					pr.ids = append(pr.ids, id)
				}
				pr.hi = hi
				if next != blockstore.Nil {
					nextLive = append(nextLive, pr)
					nextHeads = append(nextHeads, slot{addr: next})
				}
			}
			live, heads = nextLive, nextHeads
		}
	}
	foldBatchStats(st, *bst)
	return nil
}

// readWave reads one wave through s.read; on a traced query it adds the
// wave's wait and blocks to s.wait and s.waitN and, unless in line, records
// it as a StageIOWait span (N blocks asked for, M physical reads they
// became).
//
//lsh:hotpath
func (s *WaveSearcher) readWave(rIdx int, addrs []blockstore.Addr, dsts [][]byte, group int) ([]bool, error) {
	tr := s.lad.Trace()
	start, phys := tr.Clock(), s.bst.PhysicalReads
	ok, err := s.read(addrs, dsts, group, &s.bst)
	if err == nil && tr.Active() {
		d := tr.Clock() - start
		s.wait += d
		s.waitN += int64(len(addrs))
		if !s.inline {
			tr.Add(telemetry.StageIOWait, rIdx, start, d, int64(len(addrs)), int64(s.bst.PhysicalReads-phys))
		}
	}
	return ok, err
}

// verify is the round's verification step after a wave: it offers the
// driver, in probe order, every fetched id from where the previous step
// stopped up to the first probe whose chain is still being read (live[0]),
// that probe's ids fetched so far included; once live is empty, every
// remaining id of the slice, which ends at probe end. It reports whether the
// driver decided the round. The step's candidates are gathered first, so
// that their slice-header loads overlap; then each vector is prefetched
// verifyAhead candidates early, so the distance kernel finds it in cache
// instead of waiting on DRAM. A candidate the driver will settle without a
// distance check (Driver.Skips) keeps its place in the order but loads and
// prefetches nothing.
//
//lsh:hotpath
func (s *WaveSearcher) verify(live []*probe, end int) bool {
	var reading *probe
	if len(live) > 0 {
		reading = live[0]
	}
	lad, data, cands := s.lad, s.ix.data, s.cands[:0]
	vp, vi := s.vp, s.vi
	for ; s.vp < end; s.vp, s.vi = s.vp+1, 0 {
		pr := s.probes[s.vp]
		for _, id := range pr.ids[s.vi:] {
			c := candidate{id: id}
			if !lad.Skips(id) {
				c.vec = data[id]
			}
			cands = append(cands, c)
		}
		if pr == reading {
			s.vi = len(pr.ids)
			break
		}
	}
	s.cands = cands
	for _, c := range cands[:min(verifyAhead, len(cands))] {
		if c.vec != nil {
			vecmath.Prefetch(c.vec)
		}
	}
	for i, c := range cands {
		if j := i + verifyAhead; j < len(cands) && cands[j].vec != nil {
			vecmath.Prefetch(cands[j].vec)
		}
		if lad.Verify(c.id) {
			if s.inline {
				s.unscan(vp, vi+i)
			}
			return true
		}
	}
	return false
}

// unscan uncounts the entries scanned past the one that decided an in-line
// round, id i counting from probe vp's first, so that EntriesScanned and
// FPRejected stop where the reference's do. In line every earlier block's
// ids were verified after that block's wave, so the deciding id and the
// matched ids after it came from the block just read, still in s.bufs[0]:
// walking its entries back from the end finds the deciding one.
func (s *WaveSearcher) unscan(vp, i int) {
	for ; i >= len(s.probes[vp].ids); vp++ {
		i -= len(s.probes[vp].ids)
	}
	pr, buf := s.probes[vp], s.bufs[0]
	after := len(pr.ids) - 1 - i
	e := pr.hi
	for seen := 0; seen <= after; {
		e--
		if _, efp := s.ix.unpackEntry(getUint40(buf[HeaderBytes+e*EntryBytes:])); efp == pr.fp {
			seen++
		}
	}
	past := pr.hi - 1 - e
	s.lad.EntriesScanned -= past
	s.lad.FPRejected -= past - after
}
