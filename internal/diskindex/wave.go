package diskindex

import (
	"context"
	"encoding/binary"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
	"e2lshos/internal/telemetry"
)

// WaveSearcher is the serving searcher. Where nothing would overlap its
// reads — no ioengine attached, or one whose backend does not block (see
// ioengine.Engine.Blocking: a RAM slab, a warm file) — it walks each bucket
// as the reference Searcher does (see searcher.walk), reading through the
// engine's single-block Read when one is attached, and its logical
// counters are the reference's. Over a backend that blocks, or under the
// simulator's scheduler, it collects every probe of a round — each table's
// base bucket and, with multi-probe, its perturbed neighbors — and reads
// them as waves through Index.readBatch, overlapped at the engine's queue
// depth (the paper's "many parallel read requests"): the round's
// table-entry blocks, then one wave per chain depth, with readahead warming
// the next round. After each wave it verifies candidates in probe order
// under the budget, as far as the chains read so far allow, and once the
// budget decides the round it reads nothing more. Which of the two a query
// does is decided once, as it starts.
//
// The neighbors are bitwise those of the reference Searcher under the same
// knobs: verification visits the same entries in the same order under the
// same budget. A wave reads ahead of verification, so where the budget cuts
// a round short it has read every table block of the round and its chains
// to the deciding wave's depth: never fewer blocks than the reference, and
// every entry it decoded counted.
//
// A WaveSearcher is safe for use by one goroutine at a time; run several
// concurrently to batch queries, matching §6's multithreaded setup.
type WaveSearcher struct {
	searcher
	// Per-round arenas, sized for every probe a round can issue and reused
	// across the searcher's queries: the probes (and their ids backing), one
	// block buffer per probe (block i of a wave lands in bufs[i]), and the
	// addresses of the current wave.
	probeBuf []probe
	probes   []*probe
	bufs     [][]byte
	addrs    []blockstore.Addr
	live     []*probe
	heads    []slot
	offs     []int
	// The round's verification cursor: the next probe to verify, and how
	// many of its ids are already verified.
	vp, vi int
	// whole reads rounds as waves even without an engine, as the
	// simulator's scheduler issues them; walking is set for a query that
	// walks its buckets in line instead.
	whole, walking bool
	// read fetches one wave; it is Index.readBatch except under the
	// virtual-time engine, which suspends the query there (see sim.go).
	// bst is the running fetch's engine outcome, a field so that passing
	// it through read does not move it to the heap.
	read func(addrs []blockstore.Addr, dsts [][]byte, bst *ioengine.BatchStats) ([]bool, error)
	bst  ioengine.BatchStats
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
	s.probeBuf = append(s.probeBuf, make([]probe, n-len(s.probeBuf))...)
	for len(s.bufs) < n {
		s.bufs = append(s.bufs, make([]byte, blockstore.BlockSize))
	}
	s.probes = make([]*probe, 0, n)
	s.live = make([]*probe, 0, n)
	s.heads = make([]slot, 0, n)
	s.offs = make([]int, 0, n)
	s.addrs = make([]blockstore.Addr, 0, n)
}

// probe is one occupied bucket to fetch during a radius round.
type probe struct {
	l   int
	idx uint32
	fp  uint32
	ids []uint32 // fingerprint-matched object ids, filled as the chain is read
}

// BeginRound implements ladder.Rounds: on top of the shared step it decides
// whether the query walks in line (unless it is the simulator's, whenever
// the shared step found nothing to overlap: no engine attached, even one
// attached after the searcher was made, or one that is not blocking) and
// empties the round's probe list.
func (s *WaveSearcher) BeginRound(ctx context.Context, r int, readahead bool) {
	s.searcher.BeginRound(ctx, r, readahead)
	s.walking = !s.whole && !s.overlap
	s.probes = s.probes[:0]
}

// EndRound implements ladder.Rounds: unless the round walked in line, its
// probes are read as waves and verified as their blocks land; see fetch.
//
//lsh:hotpath
func (s *WaveSearcher) EndRound(r int) (ladder.IO, error) {
	if !s.walking {
		if err := s.fetch(r, &s.lad.Stats); err != nil {
			return ladder.IO{}, err
		}
	}
	return s.roundIO(), nil
}

// Visit implements ladder.Rounds: in line it walks the bucket (see
// searcher.walk); otherwise, when the probed bucket is occupied, it joins
// the round's probe list and nothing is read until EndRound.
//
//lsh:hotpath
func (s *WaveSearcher) Visit(r, l int, h uint32) (bool, error) {
	if s.walking {
		return s.walk(r, l, h, s.bufs[0])
	}
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

// fetch is the round's read-and-verify loop. It reads the round's
// table-entry blocks as one wave, then every live chain's current block as
// one wave per chain depth, until the chains drain or the round is decided.
// After each wave it runs verify, and once the driver reports the round
// decided no further wave is issued. With an engine attached each wave is
// one vectored submission, so adjacent blocks coalesce, a block probed twice
// in one wave is read once, and the backend sees the configured queue
// depth. It fills each probe's fingerprint-matched ids and folds the I/O,
// entry and engine counters into st. A chain cut short by an unreadable
// block is skipped (degraded mode); the ids it collected before the cut
// still verify.
//
//lsh:hotpath
func (s *WaveSearcher) fetch(rIdx int, st *Stats) error {
	ix, probes := s.ix, s.probes
	if len(probes) == 0 {
		return nil
	}
	bst := &s.bst
	*bst = ioengine.BatchStats{}
	s.vp, s.vi = 0, 0
	// Table wave, stashing each probe's slot byte offset for the decode.
	addrs, offs := s.addrs[:0], s.offs[:0]
	for _, pr := range probes {
		blk, off := ix.tableEntryBlock(rIdx, pr.l, pr.idx)
		addrs = append(addrs, blk)
		offs = append(offs, off)
	}
	ok, err := s.readWave(rIdx, addrs)
	if err != nil {
		return err
	}
	live, heads := s.live[:0], s.heads[:0]
	for i, pr := range probes {
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

	// Chain waves: one bucket block per live probe. s.heads holds the
	// wave's slots while it is read, for the simulator's scan charge.
	for !s.verify(live) && len(live) > 0 {
		addrs = addrs[:0]
		for _, h := range heads {
			addrs = append(addrs, h.addr)
		}
		s.heads = heads
		ok, err = s.readWave(rIdx, addrs)
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
			if next != blockstore.Nil {
				nextLive = append(nextLive, pr)
				nextHeads = append(nextHeads, slot{addr: next})
			}
		}
		live, heads = nextLive, nextHeads
	}
	foldBatchStats(st, *bst)
	return nil
}

// readWave reads one wave through s.read, block i into s.bufs[i]; on a
// traced query it adds the wave's wait to the round's and records it as a
// StageIOWait span (N blocks asked for, M physical reads they became).
//
//lsh:hotpath
func (s *WaveSearcher) readWave(rIdx int, addrs []blockstore.Addr) ([]bool, error) {
	tr := s.lad.Trace()
	start, phys := tr.Clock(), s.bst.PhysicalReads
	ok, err := s.read(addrs, s.bufs[:len(addrs)], &s.bst)
	if err == nil && tr.Active() {
		d := tr.Clock() - start
		s.wait += d
		tr.Add(telemetry.StageIOWait, rIdx, start, d, int64(len(addrs)), int64(s.bst.PhysicalReads-phys))
	}
	return ok, err
}

// verify is the round's verification step after a wave: it offers the
// driver, in probe order, every fetched id from where the previous step
// stopped up to the first probe whose chain is still being read (live[0]),
// that probe's ids fetched so far included; once live is empty, every
// remaining id of the round. It reports whether the driver decided the
// round.
//
//lsh:hotpath
func (s *WaveSearcher) verify(live []*probe) bool {
	var reading *probe
	if len(live) > 0 {
		reading = live[0]
	}
	cands := s.cands[:0]
	for ; s.vp < len(s.probes); s.vp, s.vi = s.vp+1, 0 {
		pr := s.probes[s.vp]
		for _, id := range pr.ids[s.vi:] {
			cands = append(cands, s.candidate(id, 0))
		}
		if pr == reading {
			s.vi = len(pr.ids)
			break
		}
	}
	s.cands = cands
	return s.check(cands) >= 0
}
