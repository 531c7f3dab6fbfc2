package diskindex

import (
	"context"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/faultinject"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
	"e2lshos/internal/telemetry"
)

// readSlot reads the slot of bucket idx of table (r, l).
func readSlot(t *testing.T, ix *Index, r, l int, idx uint32) slot {
	t.Helper()
	blk, off := ix.tableEntryBlock(r, l, idx)
	buf := make([]byte, blockstore.BlockSize)
	if err := ix.readBlock(blk, buf, nil); err != nil {
		t.Fatal(err)
	}
	return decodeSlot(binary.LittleEndian.Uint64(buf[off:]))
}

// roundZeroSlots returns, for each table, query q's round-0 base bucket and
// its slot (the zero slot when the bucket is unoccupied).
func roundZeroSlots(t *testing.T, ix *Index, q []float32) ([]uint32, []slot) {
	t.Helper()
	fam := ix.Family()
	proj := make([]float64, ix.params.L*ix.params.M)
	fam.Project(q, proj)
	hashes := make([]uint32, ix.params.L)
	fam.HashesAt(proj, ix.params.Radii[0], hashes)
	idxs, slots := make([]uint32, len(hashes)), make([]slot, len(hashes))
	for l, h := range hashes {
		idxs[l], _ = lsh.SplitHash(h, ix.u)
		if ix.isOccupied(0, l, idxs[l]) {
			slots[l] = readSlot(t, ix, 0, l, idxs[l])
		}
	}
	return idxs, slots
}

// chainSpy is the wave searcher with a Visit that first notes whether the
// probed slot names a chain: count 0 and a head.
type chainSpy struct {
	*WaveSearcher
	t      *testing.T
	chains int
}

func (s *chainSpy) Visit(r, l int, h uint32) (bool, error) {
	if idx, _ := lsh.SplitHash(h, s.ix.u); s.ix.isOccupied(r, l, idx) {
		if sl := readSlot(s.t, s.ix, r, l, idx); sl.count == 0 && sl.addr != blockstore.Nil {
			s.chains++
		}
	}
	return s.WaveSearcher.Visit(r, l, h)
}

// probesChain reports whether the ladder, answering queries under kn,
// probes a slot that names a chain. The build gives a bucket a chain only
// when it outgrows one block, so on an index no update has touched such a
// slot names two blocks or more. It is a property of the fixture and the
// knobs, not of how deep a round reads: with an engine over a backend that
// blocks the wave searcher probes every occupied bucket of every round the
// ladder walks (in line it would stop at the budget), and the ladder walks
// the same rounds whichever searcher runs it.
func probesChain(t *testing.T, ix *Index, queries [][]float32, kn ladder.Knobs) bool {
	t.Helper()
	spy := &chainSpy{WaveSearcher: blockingEngine(t, ix, ioengine.Options{Depth: 4}, 0, 0).NewWaveSearcher(), t: t}
	spy.sizeArenas(ix.params.L * (1 + kn.MultiProbe))
	for _, q := range queries {
		if err := spy.lad.Run(context.Background(), spy, q, ix.data, kn); err != nil {
			t.Fatal(err)
		}
	}
	return spy.chains > 0
}

// TestChainGuardNeedsChains: TestWaveOptionMatrix's chained layout is only
// worth its name if its queries probe chains. The guard it uses says so of
// that fixture at both of the matrix's budgets, and fires on a fixture with
// fewer objects than a block holds, where no bucket can chain.
func TestChainGuardNeedsChains(t *testing.T) {
	var chained Options
	for _, lay := range bucketLayouts() {
		if lay.name == "chained" {
			chained = lay.opts
		}
	}
	for _, c := range []struct {
		name   string
		n      int
		opts   Options
		chains bool
	}{{"chained", 2000, chained, true}, {"no chains", 90, DefaultOptions(), false}} {
		d, ix, _ := testSetup(t, c.n, 1000, c.opts)
		if c.n <= entriesPerBlock != !c.chains {
			t.Fatalf("%s: %d objects against %d entries per block", c.name, c.n, entriesPerBlock)
		}
		for _, sigma := range []int{1000, 2} {
			for _, mp := range []int{0, 2} {
				kn := ladder.Knobs{K: 5, Budget: sigma * ix.params.L, MultiProbe: mp}
				if got := probesChain(t, ix, d.Queries, kn); got != c.chains {
					t.Errorf("%s/sigma%d/mp%d: probesChain = %v, want %v", c.name, sigma, mp, got, c.chains)
				}
			}
		}
	}
}

// chainLen returns how many blocks the chain at head spans.
func chainLen(t *testing.T, ix *Index, head blockstore.Addr) int {
	t.Helper()
	buf := make([]byte, blockstore.BlockSize)
	n := 0
	for a := head; a != blockstore.Nil; n++ {
		if err := ix.readBlock(a, buf, nil); err != nil {
			t.Fatal(err)
		}
		a, _ = bucketHeader(buf)
	}
	return n
}

// decidedFixture builds an index whose round 0 the query's first probe
// decides. The query is object 0, so its table-0 bucket — packed in one
// block, probed first — offers object 0 first, and a budget of one decides
// the round on it (k = 1 at distance 0 also ends the ladder there). Copies
// of a point that shares the query's last-table bucket but not its first
// give that later probe a chain of at least three blocks.
func decidedFixture(t *testing.T) (*Index, []float32) {
	t.Helper()
	_, ix := buildUpdatableWith(t, 600, 0, DefaultOptions())
	ix.SetPartitions(1)
	q := append([]float32(nil), ix.data[0]...)
	L := ix.params.L
	qIdx, qSlots := roundZeroSlots(t, ix, q)
	if qSlots[0].count == 0 {
		t.Fatalf("table 0's bucket for the query is not packed: %+v", qSlots[0])
	}

	// A point in the query's last-table bucket but not in its first.
	rng := rand.New(rand.NewSource(5))
	var far []float32
	for try := 0; far == nil; try++ {
		if try == 100000 {
			t.Fatal("no point shares the last table's bucket only")
		}
		p := make([]float32, len(q))
		scale := float32(1+try%20) * 0.01
		for i := range p {
			p[i] = q[i] + scale*float32(rng.NormFloat64())
		}
		idxs, _ := roundZeroSlots(t, ix, p)
		if idxs[L-1] == qIdx[L-1] && idxs[0] != qIdx[0] {
			far = p
		}
	}
	for range 3 * entriesPerBlock {
		if _, err := ix.Insert(far); err != nil {
			t.Fatal(err)
		}
	}
	_, qSlots = roundZeroSlots(t, ix, q)
	if qSlots[0].count == 0 {
		t.Fatalf("the inserts unpacked table 0's bucket: %+v", qSlots[0])
	}
	if n := chainLen(t, ix, qSlots[L-1].addr); qSlots[L-1].count != 0 || n < 3 {
		t.Fatalf("last table's bucket is %+v with %d blocks, want a chain of ≥ 3", qSlots[L-1], n)
	}
	return ix, q
}

// decidedRun runs decidedFixture's query, traced, on ix's wave searcher and
// checks that it ended the ladder on object 0 in round 0. It returns the
// stats and the round's StageIOWait spans.
func decidedRun(t *testing.T, ix *Index, q []float32) (Stats, []telemetry.Span) {
	t.Helper()
	tr := telemetry.New(telemetry.Config{SampleRate: 1}).StartTrace()
	kn := ladder.Knobs{K: 1, Budget: 1, Trace: tr}
	res, st, err := ix.NewWaveSearcher().Run(context.Background(), q, kn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Radii != 1 || len(res.Neighbors) != 1 || res.Neighbors[0].ID != 0 {
		t.Fatalf("fixture did not end the ladder on object 0 in round 0: %+v %+v", res.Neighbors, st)
	}
	var waves []telemetry.Span
	for _, sp := range tr.Spans() {
		if sp.Stage == telemetry.StageIOWait {
			waves = append(waves, sp)
		}
	}
	return st, waves
}

// TestWaveStopsReadingOnceDecided: once the budget decides a round, the wave
// searcher reads no further chain wave. With an engine over a backend that
// blocks the round is one slice even at a queue depth below its probe
// count, so its reads are the table wave and the first chain wave, nothing
// after, and every entry of that chain wave's blocks is counted as scanned.
func TestWaveStopsReadingOnceDecided(t *testing.T) {
	ix, q := decidedFixture(t)
	wide := blockingEngine(t, ix, ioengine.Options{Depth: 2}, 0, 0)
	if d, L := wide.IOEngine().Depth(), ix.params.L; d >= L {
		t.Fatalf("queue depth %d covers a round of %d probes; the fixture shows nothing", d, L)
	}
	st, waves := decidedRun(t, wide, q)
	if len(waves) < 2 {
		t.Fatalf("round read %d waves, want the table wave and one chain wave", len(waves))
	}
	if first := int(waves[1].N); st.BucketIOs != first {
		t.Errorf("BucketIOs = %d, want the first chain wave's %d blocks", st.BucketIOs, first)
	}
	if len(waves) != 2 {
		t.Errorf("round read %d waves, want the table wave and one chain wave", len(waves))
	}
	_, slots := roundZeroSlots(t, ix, q)
	buf := make([]byte, blockstore.BlockSize)
	decoded := 0
	for _, sl := range slots {
		if sl.addr == blockstore.Nil {
			continue
		}
		if err := ix.readBlock(sl.addr, buf, nil); err != nil {
			t.Fatal(err)
		}
		_, lo, hi := sl.span(buf)
		decoded += hi - lo
	}
	if st.EntriesScanned != decoded {
		t.Errorf("EntriesScanned = %d, want the %d entries the chain wave decoded", st.EntriesScanned, decoded)
	}
	_, refSt, err := ix.NewSearcher().Run(context.Background(), q, ladder.Knobs{K: 1, Budget: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if refSt.IOs() >= st.IOs() {
		t.Errorf("reference read %d blocks, the wave %d: the fixture reads nothing past the decision", refSt.IOs(), st.IOs())
	}
}

// TestWaveInlineReadsAsReference: in line the wave searcher walks its
// buckets as the reference does, so on the same fixture the round stops
// where the reference's does — one table block and one bucket block — with
// every logical counter the reference's.
func TestWaveInlineReadsAsReference(t *testing.T) {
	ix, q := decidedFixture(t)
	st, _ := decidedRun(t, ix, q)
	_, refSt, err := ix.NewSearcher().Run(context.Background(), q, ladder.Knobs{K: 1, Budget: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := logicalStats(refSt), logicalStats(st); w != g || g.TableIOs != 1 || g.BucketIOs != 1 {
		t.Errorf("in line the wave's counters are %+v, the reference's %+v; want one table and one bucket block", g, w)
	}
}

// TestWaveTraceFitsSpanBuffer: a multi-probe-2 query that climbs every rung
// of a chained index reads more blocks than the buffer holds spans, and its
// trace drops none. In line no read is a span of its own (a round's reads
// are its io stage), and with an engine over a backend that blocks, even one
// shallower than a round, a round is a span per wave: the table wave and
// one per chain depth.
func TestWaveTraceFitsSpanBuffer(t *testing.T) {
	var chained Options
	for _, lay := range bucketLayouts() {
		if lay.name == "chained" {
			chained = lay.opts
		}
	}
	d, ix, _ := testSetup(t, 2000, 1000, chained)
	ix.SetPartitions(1)
	col := telemetry.New(telemetry.Config{SampleRate: 1})
	most := 0
	for _, view := range []*Index{ix, blockingEngine(t, ix, ioengine.Options{Depth: 2}, 0, 0)} {
		ws, inline := view.NewWaveSearcher(), view.IOEngine() == nil
		for qi, q := range d.Queries {
			tr := col.StartTrace()
			kn := ladder.Knobs{K: 500, MultiProbe: 2, Trace: tr}
			_, st, err := ws.Run(context.Background(), q, kn, nil)
			if err != nil {
				t.Fatal(err)
			}
			most = max(most, st.IOs())
			if tr.Dropped() != 0 {
				t.Errorf("inline=%v query %d: %d spans dropped over %d rounds and %d blocks", inline, qi, tr.Dropped(), st.Radii, st.IOs())
			}
			waits := 0
			for _, sp := range tr.Spans() {
				if sp.Stage == telemetry.StageIOWait {
					waits++
				}
			}
			if inline && waits != 0 {
				t.Errorf("query %d: %d wave spans in line, want none", qi, waits)
			}
		}
	}
	if most <= telemetry.MaxSpans {
		t.Fatalf("no query reads more than %d blocks (most %d); fixture is vacuous", telemetry.MaxSpans, most)
	}
}

// TestWaveTraceAttributesRound: a traced query's io stage covers its round's
// reads, and project + io + verify is the round, although verification runs
// between the reads. In line, where a round walks its buckets (the reference
// and the wave searcher alike), the io stages' blocks are the query's and no
// read is a wave span; at queue depth 4 over a backend that blocks a round's
// io stage is the sum of its wave spans' waits and blocks.
func TestWaveTraceAttributesRound(t *testing.T) {
	d, ix, _ := testSetup(t, 2000, 1000, DefaultOptions())
	ix.SetPartitions(1)
	col := telemetry.New(telemetry.Config{SampleRate: 1})
	rounds := 0
	for _, c := range []struct {
		name   string
		inline bool
		s      interface {
			Run(context.Context, []float32, ladder.Knobs, []ann.Neighbor) (ann.Result, Stats, error)
		}
	}{
		{"reference", true, ix.NewSearcher()},
		{"in line", true, ix.NewWaveSearcher()},
		{"engine", false, blockingEngine(t, ix, ioengine.Options{Depth: 4}, 0, 0).NewWaveSearcher()},
	} {
		for qi, q := range d.Queries {
			tr := col.StartTrace()
			kn := ladder.Knobs{K: 5, Budget: 2 * ix.params.L, MultiProbe: 1, Trace: tr}
			_, st, err := c.s.Run(context.Background(), q, kn, nil)
			if err != nil {
				t.Fatal(err)
			}
			type round struct {
				waitDur, waitN int64
				stage          [telemetry.NumStages]telemetry.Span
				has            [telemetry.NumStages]bool
			}
			var byRound []round
			waves := 0
			for _, sp := range tr.Spans() {
				for int(sp.Round) >= len(byRound) {
					byRound = append(byRound, round{})
				}
				r := &byRound[sp.Round]
				if sp.Stage == telemetry.StageIOWait {
					waves++
					r.waitDur += int64(sp.Dur)
					r.waitN += sp.N
					continue
				}
				r.stage[sp.Stage], r.has[sp.Stage] = sp, true
			}
			if c.inline && waves != 0 {
				t.Errorf("%s query %d: %d wave spans, want none", c.name, qi, waves)
			}
			var blocks int64
			for ri, r := range byRound {
				if !r.has[telemetry.StageRound] {
					t.Fatalf("%s query %d round %d has no round span", c.name, qi, ri)
				}
				rounds++
				io := r.stage[telemetry.StageIO]
				blocks += io.N
				if !c.inline && (int64(io.Dur) != r.waitDur || io.N != r.waitN) {
					t.Errorf("%s query %d round %d: io stage %v over %d blocks, waves %v over %d",
						c.name, qi, ri, io.Dur, io.N, r.waitDur, r.waitN)
				}
				sum := r.stage[telemetry.StageProject].Dur + io.Dur + r.stage[telemetry.StageVerify].Dur
				if total := r.stage[telemetry.StageRound].Dur; sum != total || r.stage[telemetry.StageVerify].Dur < 0 {
					t.Errorf("%s query %d round %d: project + io + verify = %v, round %v (verify %v)",
						c.name, qi, ri, sum, total, r.stage[telemetry.StageVerify].Dur)
				}
			}
			if blocks != int64(st.IOs()) {
				t.Errorf("%s query %d: io stages over %d blocks, the query read %d", c.name, qi, blocks, st.IOs())
			}
		}
	}
	if rounds == 0 {
		t.Fatal("no traced rounds")
	}
}

// TestInlineIOStageCoversReads: in line a round's io stage is its reads'
// summed wait, chain blocks included. On a store whose every read stalls,
// each round's io stage lasts at least its blocks times the stall, for the
// reference and the in-line wave searcher alike.
func TestInlineIOStageCoversReads(t *testing.T) {
	const stall = time.Millisecond
	d, ix, _ := testSetup(t, 2000, 1000, DefaultOptions())
	slow, _ := faultyCopy(t, ix, faultinject.Schedule{SlowRead: 1, SlowDelay: stall})
	col := telemetry.New(telemetry.Config{SampleRate: 1})
	for name, s := range map[string]interface {
		Run(context.Context, []float32, ladder.Knobs, []ann.Neighbor) (ann.Result, Stats, error)
	}{"reference": slow.NewSearcher(), "in line": slow.NewWaveSearcher()} {
		for qi, q := range d.Queries[:3] {
			tr := col.StartTrace()
			_, st, err := s.Run(context.Background(), q, ladder.Knobs{K: 5, Trace: tr}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.BucketIOs == 0 {
				t.Fatalf("%s query %d read no bucket block; fixture is vacuous", name, qi)
			}
			for _, sp := range tr.Spans() {
				if sp.Stage == telemetry.StageIO && sp.Dur < time.Duration(sp.N)*stall {
					t.Errorf("%s query %d round %d: io stage %v over %d blocks stalled %v each", name, qi, sp.Round, sp.Dur, sp.N, stall)
				}
			}
		}
	}
}
