package diskindex

import (
	"context"
	"encoding/binary"
	"errors"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
	"e2lshos/internal/vecmath"
)

// Stats is the one work-counter struct (see ladder.Stats): the disk searchers
// count their I/O straight into the ladder driver's copy.
type Stats = ladder.Stats

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
func skipChain(st *Stats) {
	st.FaultedReads++
	st.SkippedChains++
	st.Partial = 1
}

// searcher is what the reference Searcher and the serving WaveSearcher share:
// the ladder driver with its scratch and the running query's Stats, and the
// disk-only work around a run — the update lock, readahead issue and settle.
type searcher struct {
	ix  *Index
	lad *ladder.Driver
	// rounds is the embedding searcher, the driver's view of it.
	rounds ladder.Rounds
	// overlap is whether the running query's reads can overlap: whether an
	// engine is attached and blocking (see ioengine.Engine.Blocking), read
	// once as the query's first round opens. Readahead runs only then.
	overlap bool
	// Readahead scratch: next-round hashes and the in-flight prefetch
	// handle.
	nextHashes []uint32
	pending    *blockcache.Handle
	// The running round's reads, for the trace: their summed trace-clock
	// wait, and the I/O and cache-hit counts when it began.
	wait      time.Duration
	ios, hits int
	// cands holds a verification step's candidates in order (grown to the
	// largest step seen).
	cands []candidate
}

// init wires the shared state for the embedding searcher. Safe to call while
// updates run: the visited array is sized under the update lock (the driver
// regrows it if inserts land later anyway).
func (s *searcher) init(ix *Index, rounds ladder.Rounds) {
	u := ix.upd
	u.mu.RLock()
	n := len(ix.data)
	u.mu.RUnlock()
	s.ix, s.rounds = ix, rounds
	s.lad = ladder.New(ix.params, ix.families, true, n, ix.parts)
	s.nextHashes = make([]uint32, ix.params.L)
}

// Search answers a top-k query with the index's built-in budget and classic
// probing, walking the on-storage index table by table (§5.4 steps 1–3). It
// returns the neighbors and the per-query statistics.
func (s *searcher) Search(q []float32, k int) (ann.Result, Stats, error) {
	//lsh:ctxok ctx-free convenience wrapper; cancellation lives in SearchContext
	return s.SearchContext(context.Background(), q, k)
}

// SearchContext is Search with cancellation: ctx is checked between radius
// rounds, so a long ladder walk aborts cleanly. On cancellation it returns
// the neighbors accumulated so far together with ctx.Err().
func (s *searcher) SearchContext(ctx context.Context, q []float32, k int) (ann.Result, Stats, error) {
	return s.Run(ctx, q, ladder.Knobs{K: k}, nil)
}

// SearchInto is SearchContext with caller-owned result backing; see Run.
func (s *searcher) SearchInto(ctx context.Context, q []float32, k int, dst []ann.Neighbor) (ann.Result, Stats, error) {
	return s.Run(ctx, q, ladder.Knobs{K: k}, dst)
}

// Run answers one query under the given per-query knobs (budget, multi-probe
// — on storage, extra probes trade I/O for recall without growing the index —
// trace, controller). The returned neighbors are appended into dst[:0] (nil
// asks for fresh backing), so a worker looping over queries with a reused dst
// allocates nothing per query after warmup; on an I/O error the result is
// empty.
//
// The whole query holds the index's update lock shared, so a concurrent
// Insert/Delete (which holds it exclusively) is observed either fully applied
// across all its chains or not at all — never a torn chain — and the dataset
// the candidates are verified against is the one read under that lock.
func (s *searcher) Run(ctx context.Context, q []float32, kn ladder.Knobs, dst []ann.Neighbor) (ann.Result, Stats, error) {
	ix := s.ix
	ix.checkDim(q)
	u := ix.upd
	u.mu.RLock()
	defer u.mu.RUnlock()
	err := s.lad.Run(ctx, s.rounds, q, ix.data, kn)
	// Settle readahead issued for a round the ladder never entered, so no
	// prefetch work outlives the query and the stats stay exact. On
	// cancellation the engine's walk stops between waves.
	s.settle()
	return ann.Result{Neighbors: s.lad.AppendResult(dst[:0])}, s.lad.Stats, err
}

// BeginRound implements ladder.Rounds for both disk searchers: it opens the
// round's read accounting (see roundIO), settles the readahead issued while
// the previous round was verifying (by now it has usually drained) and, when
// allowed and the query overlaps its reads, starts prefetching the next
// round's chains so they load while this round verifies. As the query's
// first round opens it reads whether the query overlaps.
func (s *searcher) BeginRound(ctx context.Context, r int, readahead bool) {
	s.settle()
	st := &s.lad.Stats
	s.wait, s.ios, s.hits = 0, st.IOs(), st.CacheHits
	ix := s.ix
	if r == 0 {
		s.overlap = ix.ioeng != nil && ix.ioeng.Blocking()
	}
	if readahead && s.overlap && ix.readahead > 0 && r+1 < ix.params.R() {
		ix.Family().HashesAt(s.lad.Proj(), ix.params.Radii[r+1], s.nextHashes)
		s.pending = ix.prefetchRound(ctx, r+1, s.nextHashes)
	}
}

// roundIO returns the round's demand reads for a traced query: the summed
// trace-clock wait of its reads, and the blocks read and cache hits since
// BeginRound. Untraced, it is the zero IO.
func (s *searcher) roundIO() ladder.IO {
	if !s.lad.Trace().Active() {
		return ladder.IO{}
	}
	st := &s.lad.Stats
	return ladder.IO{Wait: s.wait, Blocks: int64(st.IOs() - s.ios), CacheHits: int64(st.CacheHits - s.hits)}
}

// settle folds a finished readahead walk into the stats.
func (s *searcher) settle() {
	if s.pending != nil {
		s.lad.PrefetchedBlocks += int(s.pending.Wait())
		s.pending = nil
	}
}

// Searcher executes queries synchronously against the store's data plane:
// no virtual time, just block reads, one at a time, stopping the moment a
// round's budget is spent. It is the reference implementation the
// WaveSearcher is tested against and the I/O-count oracle for the Fig 3–8
// analyses; the WaveSearcher walks its rounds with the same code whenever
// nothing would overlap its reads (no engine attached, or one that is not
// blocking). Reads and distance
// checks interleave bucket by bucket; a traced run reports the reads' summed
// waits as the round's io stage and the rest of the walk as its verify
// stage. Not safe for concurrent use; create one per worker.
type Searcher struct {
	searcher
	buf []byte
}

// NewSearcher returns a fresh reference searcher.
func (ix *Index) NewSearcher() *Searcher {
	s := &Searcher{buf: make([]byte, blockstore.BlockSize)}
	s.init(ix, s)
	return s
}

// Visit implements ladder.Rounds: it walks one bucket's chain; see walk.
//
//lsh:hotpath
func (s *Searcher) Visit(r, l int, h uint32) (bool, error) { return s.walk(r, l, h, s.buf) }

// EndRound implements ladder.Rounds; buckets were verified as visited.
func (s *Searcher) EndRound(int) (ladder.IO, error) { return s.roundIO(), nil }

// walk is §5.4's synchronous bucket walk: it reads bucket h of table l of
// round r block by block into buf (one block long), offering each
// block's fingerprint-matched entries to the driver's verification as one
// batch (see check) as it lands, and reports whether the per-radius budget
// was exhausted. The entries count up to the one that decided the round. On
// a traced query it adds each read's trace-clock wait to the round's.
//
//lsh:hotpath
func (s *searcher) walk(r, l int, h uint32, buf []byte) (bool, error) {
	ix, lad, st := s.ix, s.lad, &s.lad.Stats
	idx, fp := lsh.SplitHash(h, ix.u)
	if !ix.isOccupied(r, l, idx) {
		return false, nil
	}
	lad.NonEmptyProbes++
	tr := lad.Trace()
	start := tr.Clock()
	blk, off := ix.tableEntryBlock(r, l, idx)
	err := ix.readBlock(blk, buf, st)
	s.wait += tr.Clock() - start
	if err != nil {
		if storageFault(err) {
			// Unreadable table block after the I/O layer's retries: skip
			// this bucket rather than fail the query (degraded mode). The
			// candidates already pushed from other buckets stand.
			skipChain(st)
			return false, nil
		}
		return false, err
	}
	st.TableIOs++
	sl := decodeSlot(binary.LittleEndian.Uint64(buf[off : off+8]))
	for sl.addr != blockstore.Nil {
		start = tr.Clock()
		err := ix.readBlock(sl.addr, buf, st)
		s.wait += tr.Clock() - start
		if err != nil {
			if storageFault(err) {
				// Abandon the rest of this chain; entries scanned from its
				// earlier blocks already reached the accumulator and stay.
				skipChain(st)
				return false, nil
			}
			return false, err
		}
		st.BucketIOs++
		next, lo, hi := sl.span(buf)
		cands := s.cands[:0]
		off := HeaderBytes + lo*EntryBytes
		for e := lo; e < hi; e++ {
			if id, efp := ix.unpackEntry(getUint40(buf[off:])); efp == fp {
				cands = append(cands, s.candidate(id, e))
			}
			off += EntryBytes
		}
		s.cands = cands
		n, matched, i := hi-lo, len(cands), s.check(cands)
		if i >= 0 {
			n, matched = int(cands[i].e)-lo+1, i+1
		}
		lad.EntriesScanned += n
		st.FPRejected += n - matched
		if i >= 0 {
			return true, nil
		}
		sl = slot{addr: next}
	}
	return false, nil
}

// candidate is one fingerprint-matched bucket entry in verification order:
// its id, its entry index in the block it came from (the walk's; a wave's
// is 0), and the vector the driver will check (nil when Driver.Skips it).
type candidate struct {
	id  uint32
	e   int32
	vec []float32
}

// candidate returns id's candidate at entry e.
//
//lsh:hotpath
func (s *searcher) candidate(id uint32, e int) candidate {
	c := candidate{id: id, e: int32(e)}
	if !s.lad.Skips(id) {
		c.vec = s.ix.data[id]
	}
	return c
}

// verifyAhead is how many candidates ahead of the one being verified check
// prefetches: enough verifications to cover a DRAM miss, few enough that
// the lines are still cached when their turn comes.
const verifyAhead = 16

// check offers cands to the driver in order and returns the index of the one
// that decided the round, or -1. The candidates were gathered first, so that
// their slice-header loads overlap; each vector is prefetched verifyAhead
// candidates early, so the distance kernel finds it in cache instead of
// waiting on DRAM. A candidate the driver will settle without a distance
// check keeps its place in the order but prefetches nothing.
//
//lsh:hotpath
func (s *searcher) check(cands []candidate) int {
	for _, c := range cands[:min(verifyAhead, len(cands))] {
		if c.vec != nil {
			vecmath.Prefetch(c.vec)
		}
	}
	for i, c := range cands {
		if j := i + verifyAhead; j < len(cands) && cands[j].vec != nil {
			vecmath.Prefetch(cands[j].vec)
		}
		if s.lad.Verify(c.id) {
			return i
		}
	}
	return -1
}
