package ladder

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/autotune"
	"e2lshos/internal/lsh"
	"e2lshos/internal/shard"
)

// script is a fake searcher: every Visit offers the ids listed for its table
// to the driver, and the calls it saw are logged in order.
type script struct {
	d       *Driver
	ids     map[int][]uint32 // table -> entries of its bucket, every round
	log     []string
	failAt  string // a Visit log line at which to fail
	onBegin func(r int)
	// part ≥ 0 offers only the entries hash partition part of parts owns:
	// what a shard built over that partition holds.
	part, parts int
	// verify, when set, offers the entries in place of d.Verify.
	verify func(id uint32) bool
}

func (s *script) BeginRound(_ context.Context, r int, readahead bool) {
	s.log = append(s.log, fmt.Sprintf("begin r%d ra=%v", r, readahead))
	if s.onBegin != nil {
		s.onBegin(r)
	}
}

func (s *script) Visit(r, l int, _ uint32) (bool, error) {
	line := fmt.Sprintf("visit r%d l%d", r, l)
	s.log = append(s.log, line)
	if line == s.failAt {
		return false, errors.New("boom")
	}
	for _, id := range s.ids[l] {
		if s.part >= 0 && shard.Of(id, s.parts) != s.part {
			continue
		}
		verify := s.d.Verify
		if s.verify != nil {
			verify = s.verify
		}
		if verify(id) {
			return true, nil
		}
	}
	return false, nil
}

func (s *script) EndRound(r int) (IO, error) {
	s.log = append(s.log, fmt.Sprintf("end r%d", r))
	return IO{}, nil
}

// fixture: 8 points on a line, far enough apart that only the nearest
// certifies at the small radii. L tables, 3 radii.
func fixture(t *testing.T, l, budget int) (*Driver, *script, [][]float32) {
	t.Helper()
	data := make([][]float32, 8)
	for i := range data {
		data[i] = []float32{float32(10 * i), 0}
	}
	p := lsh.Params{Config: lsh.DefaultConfig(), N: len(data), Dim: 2, M: 2, L: l, S: budget,
		Radii: []float64{1, 2, 4}}
	fams, err := lsh.NewFamilies(p, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := New(p, fams, true, len(data), 1)
	return d, &script{d: d, ids: map[int][]uint32{}, part: -1}, data
}

func TestProbeOrderBudgetAndDedup(t *testing.T) {
	d, s, data := fixture(t, 3, 100)
	s.ids = map[int][]uint32{0: {1, 2}, 1: {2, 3, 4}, 2: {5}}
	q := []float32{100, 0} // far from everything: no round certifies
	if err := d.Run(context.Background(), s, q, data, Knobs{K: 1, Budget: 3}); err != nil {
		t.Fatal(err)
	}
	// Round 0 verifies 1, 2 (table 0), skips the duplicate 2 and spends the
	// budget on 3 (table 1): table 2 is never visited, EndRound still runs.
	// Later rounds see only duplicates, so every table is visited.
	want := []string{
		"begin r0 ra=true", "visit r0 l0", "visit r0 l1", "end r0",
		"begin r1 ra=true", "visit r1 l0", "visit r1 l1", "visit r1 l2", "end r1",
		"begin r2 ra=true", "visit r2 l0", "visit r2 l1", "visit r2 l2", "end r2",
	}
	if fmt.Sprint(s.log) != fmt.Sprint(want) {
		t.Errorf("call order:\n got %v\nwant %v", s.log, want)
	}
	// Round 0: 3 checks, 1 duplicate, 2 probes. Rounds 1-2: ids 4 and 5 are
	// new in round 1 (2 checks, 4 duplicates), all 6 entries duplicates in
	// round 2; 3 probes each.
	if got, want := d.Stats, (Stats{Queries: 1, Radii: 3, Probes: 8, Checked: 5, Duplicates: 11}); got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
	if nb := d.AppendResult(nil); len(nb) != 1 || nb[0].ID != 5 {
		t.Errorf("nearest to x=100 among {1..5} should be 5, got %+v", nb)
	}
}

// TestSkipsPredictsVerify: Skips(id) holds exactly when Verify, offered id
// next, settles it without a distance check — a duplicate, or a candidate of
// a partition whose round budget is spent — with one partition and four.
func TestSkipsPredictsVerify(t *testing.T) {
	for _, parts := range []int{1, 4} {
		_, s, data := fixture(t, 3, 100)
		d := New(s.d.p, s.d.families, true, len(data), parts)
		s.d = d
		s.ids = map[int][]uint32{0: {1, 2, 3}, 1: {2, 3, 4, 5}, 2: {5, 6, 7, 0, 1}}
		skipped, checked := 0, 0
		s.verify = func(id uint32) bool {
			skips, before := d.Skips(id), d.Checked
			done := d.Verify(id)
			if skips != (d.Checked == before) {
				t.Errorf("parts %d id %d: Skips = %v, but Verify checked %d", parts, id, skips, d.Checked-before)
			}
			if skips {
				skipped++
			} else {
				checked++
			}
			return done
		}
		if err := d.Run(context.Background(), s, []float32{100, 0}, data, Knobs{K: 1, Budget: 2}); err != nil {
			t.Fatal(err)
		}
		if skipped == 0 || checked == 0 {
			t.Errorf("parts %d: %d skipped, %d checked; want both", parts, skipped, checked)
		}
	}
}

func TestTerminatesOnceKCertified(t *testing.T) {
	d, s, data := fixture(t, 2, 100)
	s.ids = map[int][]uint32{0: {3}, 1: {4}}
	// Point 3 sits 3 from the query: outside c·R = 2 at radius 1, inside
	// c·R = 4 at radius 2, so the ladder stops after its second round. The
	// zero Budget falls back to Params.S.
	if err := d.Run(context.Background(), s, []float32{33, 0}, data, Knobs{K: 1}); err != nil {
		t.Fatal(err)
	}
	if d.Radii != 2 {
		t.Errorf("ran %d rounds, want 2", d.Radii)
	}
	if nb := d.AppendResult(nil); len(nb) != 1 || nb[0].ID != 3 || nb[0].Dist != 3 {
		t.Errorf("got %+v, want id 3 at 3", nb)
	}
}

func TestCancelKeepsNeighborsErrorDropsThem(t *testing.T) {
	d, s, data := fixture(t, 2, 100)
	s.ids = map[int][]uint32{0: {1}}
	q := []float32{100, 0}

	ctx, cancel := context.WithCancel(context.Background())
	s.onBegin = func(r int) {
		if r == 0 {
			cancel() // noticed at the top of round 1
		}
	}
	err := d.Run(ctx, s, q, data, Knobs{K: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d.Radii != 1 || len(d.AppendResult(nil)) != 1 {
		t.Errorf("after cancellation: %d rounds, %d neighbors; want 1 and 1", d.Radii, len(d.AppendResult(nil)))
	}

	s.onBegin, s.failAt = nil, "visit r1 l0"
	if err := d.Run(context.Background(), s, q, data, Knobs{K: 1}); err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want the searcher's", err)
	}
	if len(d.AppendResult(nil)) != 0 {
		t.Errorf("a searcher error left %d neighbors in the accumulator", len(d.AppendResult(nil)))
	}
}

func TestMultiProbeVisitsPerturbationsPerTable(t *testing.T) {
	d, s, data := fixture(t, 2, 100)
	if err := d.Run(context.Background(), s, []float32{100, 0}, data, Knobs{K: 1, MultiProbe: 2}); err != nil {
		t.Fatal(err)
	}
	// Per round: each table's base bucket, then its two perturbed buckets.
	want := []string{"begin r0 ra=true",
		"visit r0 l0", "visit r0 l0", "visit r0 l0", "visit r0 l1", "visit r0 l1", "visit r0 l1", "end r0"}
	if fmt.Sprint(s.log[:len(want)]) != fmt.Sprint(want) {
		t.Errorf("round 0 calls %v, want %v", s.log[:len(want)], want)
	}
	if d.Probes != 3*6 {
		t.Errorf("%d probes over 3 rounds, want 18", d.Probes)
	}
}

// TestPartitionsMatchPerPartitionLadders: a partitioned driver over one walk
// answers exactly what one driver per partition, each offered only its own
// objects, merges to the way the shard router does, and spends the same
// distance checks and duplicates in total. The budget is small, so rounds end
// with candidates of spent partitions left unverified for later rounds.
func TestPartitionsMatchPerPartitionLadders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, l = 200, 6
	data := make([][]float32, n)
	for i := range data {
		data[i] = []float32{rng.Float32() * 100, rng.Float32() * 100}
	}
	p := lsh.Params{Config: lsh.DefaultConfig(), N: n, Dim: 2, M: 2, L: l, S: 4,
		Radii: []float64{1, 2, 4, 8, 16, 32, 64}}
	fams, err := lsh.NewFamilies(p, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		ids := map[int][]uint32{}
		for tb := 0; tb < l; tb++ {
			for range 5 + rng.Intn(30) {
				ids[tb] = append(ids[tb], uint32(rng.Intn(n)))
			}
		}
		q := []float32{rng.Float32() * 100, rng.Float32() * 100}
		parts := 2 + trial%3
		kn := Knobs{K: 1 + trial%4, Budget: 1 + trial%5}

		d := New(p, fams, true, n, parts)
		if err := d.Run(context.Background(), &script{d: d, ids: ids, part: -1}, q, data, kn); err != nil {
			t.Fatal(err)
		}
		got := d.AppendResult(nil)

		merged := ann.NewTopK(kn.K)
		var sum Stats
		radii := 0
		for part := 0; part < parts; part++ {
			pd := New(p, fams, true, n, 1)
			s := &script{d: pd, ids: ids, part: part, parts: parts}
			if err := pd.Run(context.Background(), s, q, data, kn); err != nil {
				t.Fatal(err)
			}
			for _, nb := range pd.AppendResult(nil) {
				merged.Push(nb.ID, nb.Dist)
			}
			sum.Merge(pd.Stats)
			radii = max(radii, pd.Radii)
		}
		want := merged.Result().Neighbors
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d partitions, %+v): partitioned %v, per-partition ladders %v",
				trial, parts, kn, got, want)
		}
		if d.Checked != sum.Checked || d.Duplicates != sum.Duplicates || d.Radii != radii {
			t.Errorf("trial %d: %d checks, %d duplicates, %d rounds; per-partition ladders %d, %d, deepest %d",
				trial, d.Checked, d.Duplicates, d.Radii, sum.Checked, sum.Duplicates, radii)
		}
	}
}

// TestTunerRunFinishesItsControllers: with Knobs.Tuner the driver starts one
// controller per partition and finishes every one of them however the run
// ends. Controllers that ask for nothing leave the answer and the counters
// exactly as without a tuner, and each partition's full ladder trains the
// model once. A cancelled run and a run failed by its searcher train nothing
// and return their controllers once: the next run still checks out one
// distinct controller per partition and trains exactly that many ladders.
func TestTunerRunFinishesItsControllers(t *testing.T) {
	const n, l = 200, 4
	rng := rand.New(rand.NewSource(3))
	data := make([][]float32, n)
	ids := map[int][]uint32{}
	for i := range data {
		data[i] = []float32{rng.Float32() * 100, rng.Float32() * 100}
		// Table 0's bucket holds every object, so every partition's ladder
		// finds candidates and ends with a non-empty top-k to train on.
		ids[0] = append(ids[0], uint32(i))
	}
	for tb := 1; tb < l; tb++ {
		for range 20 {
			ids[tb] = append(ids[tb], uint32(rng.Intn(n)))
		}
	}
	p := lsh.Params{Config: lsh.DefaultConfig(), N: n, Dim: 2, M: 2, L: l, S: 4,
		Radii: []float64{1, 2, 4, 8, 16}}
	fams, err := lsh.NewFamilies(p, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := []float32{50, 50}
	for _, parts := range []int{1, 3} {
		plain := New(p, fams, true, n, parts)
		if err := plain.Run(context.Background(), &script{d: plain, ids: ids, part: -1}, q, data, Knobs{K: 3}); err != nil {
			t.Fatal(err)
		}
		want, wantStats := plain.AppendResult(nil), plain.Stats

		tn := autotune.New(autotune.Config{})
		d := New(p, fams, true, n, parts)
		s := &script{d: d, ids: ids, part: -1}
		kn := Knobs{K: 3, Tuner: tn}
		run := func(ctx context.Context) error {
			s.log = s.log[:0]
			return d.Run(ctx, s, q, data, kn)
		}
		finished := func(what string) {
			for i := range d.parts {
				if d.parts[i].ctl != nil {
					t.Errorf("%d partitions, %s: partition %d's controller not finished", parts, what, i)
				}
			}
		}
		trains := func(what string, want int) {
			if got := tn.Snapshot().Ladders; got != want {
				t.Errorf("%d partitions, %s: model trained on %d ladders, want %d", parts, what, got, want)
			}
		}

		if err := run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := d.AppendResult(nil); !slices.Equal(got, want) || d.Stats != wantStats {
			t.Errorf("%d partitions: tuned run %v %+v, untuned %v %+v", parts, got, d.Stats, want, wantStats)
		}
		finished("normal end")
		trains("one run", parts)

		ctx, cancel := context.WithCancel(context.Background())
		s.onBegin = func(int) { cancel() }
		if err := run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		finished("cancelled")
		s.onBegin, s.failAt = nil, "visit r1 l0"
		if err := run(context.Background()); err == nil || err.Error() != "boom" {
			t.Fatalf("err = %v, want the searcher's", err)
		}
		finished("searcher error")
		trains("after a cancelled and a failed run", parts)

		// A controller put back twice would come out of the pool twice.
		s.failAt = ""
		s.onBegin = func(r int) {
			if r != 0 {
				return
			}
			seen := map[*autotune.Ctl]bool{}
			for i := range d.parts {
				if c := d.parts[i].ctl; c == nil || seen[c] {
					t.Errorf("%d partitions: partition %d runs controller %p, shared or missing", parts, i, c)
				} else {
					seen[c] = true
				}
			}
		}
		if err := run(context.Background()); err != nil {
			t.Fatal(err)
		}
		finished("next run")
		trains("the next run", 2*parts)
	}
}
