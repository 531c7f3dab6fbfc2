package diskindex

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/dataset"
	"e2lshos/internal/faultinject"
	"e2lshos/internal/lsh"
)

// smallParams derives a compact parameter set (few radii, small L) so the
// crash sweep's per-point rebuild+audit stays fast.
func smallParams(t *testing.T, d *dataset.Dataset, n int) lsh.Params {
	t.Helper()
	base := d.Subset(n)
	cfg := lsh.DefaultConfig()
	cfg.Rho = 0.25
	cfg.Sigma = 1000 // exhaustive bucket scans: self-queries always verified
	cfg.MaxRadii = 4
	rmin := dataset.NNDistanceQuantile(base, 0.05, 10, 1)
	if rmin <= 0 {
		rmin = 0.1
	}
	p, err := lsh.Derive(cfg, base.N(), base.Dim, rmin, lsh.MaxRadius(base.MaxAbs(), base.Dim))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// walFixture builds an index over n of the dataset's vectors on a (possibly
// crash-wrapped) mem store and initializes a WAL under dir.
func walFixture(t *testing.T, d *dataset.Dataset, p lsh.Params, n int, dir string, cfg WALConfig, backend blockstore.Backend) *Index {
	t.Helper()
	data := make([][]float32, n)
	copy(data, d.Vectors[:n])
	store := blockstore.NewMem()
	if backend != nil {
		store = blockstore.NewWithBackend(backend)
	}
	ix, err := Build(data, p, DefaultOptions(), store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InitWAL(dir, cfg); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestWALRecoveryRoundTrip(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "walrt", N: 140, Queries: 5, Dim: 16, Clusters: 5, Spread: 0.05, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	p := smallParams(t, d, n)
	dir := t.TempDir()
	ix := walFixture(t, d, p, n, dir, WALConfig{}, nil)

	// Insert a batch, delete a couple (one base object, one inserted).
	// n=120 under 7 ID bits leaves exactly 8 insert slots.
	var inserted []uint32
	for i := n; i < n+8; i++ {
		id, err := ix.Insert(d.Vectors[i])
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, id)
	}
	for _, id := range []uint32{5, inserted[2]} {
		if removed, err := ix.Delete(id); err != nil || !removed {
			t.Fatalf("delete %d: removed=%v err=%v", id, removed, err)
		}
	}

	// Recover into a fresh store from the same base vectors.
	base := make([][]float32, n)
	copy(base, d.Vectors[:n])
	rec, err := OpenWAL(dir, base, blockstore.NewMem(), WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st := rec.RecoveryStats()
	if st.Replayed != 10 || st.TornTail {
		t.Fatalf("recovery stats: %+v", st)
	}
	if st.Generation != 1 {
		t.Fatalf("generation = %d, want 1", st.Generation)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	lr := p.L * p.R()
	counts, err := rec.EntryCounts()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range inserted {
		want := lr
		if id == inserted[2] {
			want = 0
		}
		if counts[id] != want {
			t.Fatalf("inserted id %d has %d entries, want %d", id, counts[id], want)
		}
	}
	if counts[5] != 0 {
		t.Fatalf("deleted base id 5 still has %d entries", counts[5])
	}
	// Every surviving insert is searchable at distance zero.
	s := rec.NewSearcher()
	for _, id := range inserted {
		if id == inserted[2] {
			continue
		}
		res, _, err := s.Search(d.Vectors[id], 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Neighbors) == 0 || res.Neighbors[0].ID != id || res.Neighbors[0].Dist != 0 {
			t.Fatalf("recovered insert %d not self-found: %+v", id, res.Neighbors)
		}
	}
}

// TestReplayOfFreshInsertsReadsNoMoreThanLive: replaying inserts of objects
// the checkpoint image does not hold reads no more blocks than the same
// inserts applied live. Such an object has no entries in the loaded store,
// so replay must not scan its buckets' chains for them.
func TestReplayOfFreshInsertsReadsNoMoreThanLive(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "walfresh", N: 130, Queries: 5, Dim: 16, Clusters: 5, Spread: 0.05, Seed: 79,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n, k = 100, 20 // 7 ID bits leave 28 insert slots
	p := smallParams(t, d, n)
	dir := t.TempDir()
	live := faultinject.Wrap(blockstore.NewMemBackend(), faultinject.Schedule{})
	live.Disarm() // the build and the first checkpoint read blocks too
	ix := walFixture(t, d, p, n, dir, WALConfig{}, live)
	live.Arm()
	for i := n; i < n+k; i++ {
		if _, err := ix.Insert(d.Vectors[i]); err != nil {
			t.Fatal(err)
		}
	}
	liveReads := live.Counters().Reads

	replay := faultinject.Wrap(blockstore.NewMemBackend(), faultinject.Schedule{})
	base := make([][]float32, n)
	copy(base, d.Vectors[:n])
	rec, err := OpenWAL(dir, base, blockstore.NewWithBackend(replay), WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st := rec.RecoveryStats(); st.Replayed != k {
		t.Fatalf("replayed %d records, want %d", st.Replayed, k)
	}
	replayReads := replay.Counters().Reads
	t.Logf("%d fresh inserts: %d block reads live, %d in replay", k, liveReads, replayReads)
	if replayReads > liveReads {
		t.Errorf("replaying %d fresh inserts read %d blocks, applying them live %d", k, replayReads, liveReads)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	counts, err := rec.EntryCounts()
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(n); id < n+k; id++ {
		if counts[id] != p.L*p.R() {
			t.Fatalf("replayed insert %d has %d entries, want %d", id, counts[id], p.L*p.R())
		}
	}
}

func TestCheckpointTruncatesAndSurvives(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "walck", N: 140, Queries: 5, Dim: 16, Clusters: 5, Spread: 0.05, Seed: 78,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	p := smallParams(t, d, n)
	dir := t.TempDir()
	ix := walFixture(t, d, p, n, dir, WALConfig{}, nil)

	for i := n; i < n+6; i++ {
		if _, err := ix.Insert(d.Vectors[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := ix.RecoveryStats().Generation; got != 2 {
		t.Fatalf("generation after checkpoint = %d, want 2", got)
	}
	// Post-checkpoint mutations land in the fresh log.
	if _, err := ix.Insert(d.Vectors[n+6]); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Delete(3); err != nil {
		t.Fatal(err)
	}

	// Old generation's files are gone; the new image + tail + log remain.
	if _, err := os.Stat(filepath.Join(dir, checkpointName(1))); !os.IsNotExist(err) {
		t.Fatalf("generation 1 image survived checkpoint: %v", err)
	}

	base := make([][]float32, n)
	copy(base, d.Vectors[:n])
	rec, err := OpenWAL(dir, base, blockstore.NewMem(), WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st := rec.RecoveryStats()
	// Only the two post-checkpoint records replay; the six inserts ride in
	// the image + tail sidecar.
	if st.Replayed != 2 || st.Generation != 2 {
		t.Fatalf("recovery stats after checkpoint: %+v", st)
	}
	if got := len(rec.Data()); got != n+7 {
		t.Fatalf("recovered dataset has %d vectors, want %d", got, n+7)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Checkpointed inserts (persisted only via the tail sidecar) remain
	// searchable after the log that carried them was truncated.
	s := rec.NewSearcher()
	for i := n; i < n+7; i++ {
		res, _, err := s.Search(d.Vectors[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Neighbors) == 0 || res.Neighbors[0].ID != uint32(i) || res.Neighbors[0].Dist != 0 {
			t.Fatalf("checkpointed insert %d not self-found", i)
		}
	}
}

func TestInitWALRefusesExistingManifest(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "walrf", N: 130, Queries: 5, Dim: 16, Clusters: 5, Spread: 0.05, Seed: 79,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	p := smallParams(t, d, n)
	dir := t.TempDir()
	walFixture(t, d, p, n, dir, WALConfig{}, nil)
	data := make([][]float32, n)
	copy(data, d.Vectors[:n])
	ix2, err := Build(data, p, DefaultOptions(), blockstore.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix2.InitWAL(dir, WALConfig{}); err == nil {
		t.Fatal("InitWAL clobbered an existing manifest")
	}
}

// crashWorkload runs the mutation sequence the sweep crashes at every
// point: 6 inserts, a delete of an inserted object, a delete of a base
// object, then 2 more inserts. It returns the acked operations in order.
type ackedOp struct {
	insert bool
	id     uint32
}

// runCrashWorkload returns the acked operations in order plus the op that
// was in flight when the crash fired (nil if the workload completed). An
// in-flight op is unacked but may still have reached the log before the
// crash, in which case replay completes it — full visibility of an unacked
// op is allowed; PARTIAL visibility never is.
func runCrashWorkload(ix *Index, d *dataset.Dataset, n int) ([]ackedOp, *ackedOp, error) {
	var acked []ackedOp
	insert := func(i int) error {
		id, err := ix.Insert(d.Vectors[i])
		if err != nil {
			return err
		}
		acked = append(acked, ackedOp{insert: true, id: id})
		return nil
	}
	del := func(id uint32) error {
		if _, err := ix.Delete(id); err != nil {
			return err
		}
		acked = append(acked, ackedOp{insert: false, id: id})
		return nil
	}
	for i := n; i < n+6; i++ {
		if err := insert(i); err != nil {
			return acked, &ackedOp{insert: true, id: uint32(i)}, err
		}
	}
	if err := del(uint32(n + 1)); err != nil { // inserted object
		return acked, &ackedOp{insert: false, id: uint32(n + 1)}, err
	}
	if err := del(7); err != nil { // base object
		return acked, &ackedOp{insert: false, id: 7}, err
	}
	for i := n + 6; i < n+8; i++ {
		if err := insert(i); err != nil {
			return acked, &ackedOp{insert: true, id: uint32(i)}, err
		}
	}
	return acked, nil, nil
}

// TestCrashRecoverySweep is the crash-injection property test: for EVERY
// write the workload issues (WAL appends and block writes share one
// deterministic budget), kill the process at that write — plain fail-stop
// and torn-final-write variants — reopen from the WAL directory, and
// demand: all acked operations are recovered exactly (fsync-every-1 acks
// are durable), no object is ever partially indexed (entry count 0 or L·R,
// nothing between), and the full structural audit passes.
func TestCrashRecoverySweep(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "walcr", N: 140, Queries: 5, Dim: 16, Clusters: 5, Spread: 0.05, Seed: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	p := smallParams(t, d, n)
	lr := p.L * p.R()

	// Discovery run: unreachable budget counts the workload's crash points.
	probe := faultinject.NewCrasher(1<<30, false)
	{
		dir := t.TempDir()
		ix := walFixture(t, d, p, n, dir, WALConfig{Crash: probe},
			faultinject.WrapCrash(blockstore.NewMemBackend(), probe))
		probe.Arm()
		if _, _, err := runCrashWorkload(ix, d, n); err != nil {
			t.Fatalf("workload failed without crash: %v", err)
		}
		probe.Disarm()
	}
	points := probe.Ops()
	if points < 50 {
		t.Fatalf("implausibly few crash points: %d", points)
	}
	t.Logf("sweeping %d crash points × {fail-stop, torn}", points)

	base := make([][]float32, n)
	copy(base, d.Vectors[:n])
	for _, torn := range []bool{false, true} {
		for point := 0; point < points; point++ {
			crasher := faultinject.NewCrasher(point, torn)
			dir := t.TempDir()
			ix := walFixture(t, d, p, n, dir, WALConfig{Crash: crasher},
				faultinject.WrapCrash(blockstore.NewMemBackend(), crasher))
			crasher.Arm()
			acked, inflight, werr := runCrashWorkload(ix, d, n)
			crasher.Disarm()
			if werr == nil {
				t.Fatalf("point %d: workload survived its crash budget", point)
			}
			if !errors.Is(werr, faultinject.ErrCrashed) {
				t.Fatalf("point %d: workload died of something else: %v", point, werr)
			}

			rec, err := OpenWAL(dir, base, blockstore.NewMem(), WALConfig{})
			if err != nil {
				t.Fatalf("point %d (torn=%v): recovery failed: %v", point, torn, err)
			}
			if err := rec.CheckInvariants(); err != nil {
				t.Fatalf("point %d (torn=%v): invariants after recovery: %v", point, torn, err)
			}
			counts, err := rec.EntryCounts()
			if err != nil {
				t.Fatal(err)
			}
			// Acked operations are durably recovered: acks ride a synced WAL
			// append (FsyncEvery defaults to 1), so an acked insert has all
			// L·R entries and an acked delete's object has none. The one
			// exception: the in-flight (unacked) op may have reached the log
			// before the crash, in which case replay completes it — an
			// in-flight delete may legitimately remove an acked insert.
			expect := make(map[uint32]int)
			for _, op := range acked {
				if op.insert {
					expect[op.id] = lr
				} else {
					expect[op.id] = 0
				}
			}
			for id, want := range expect {
				got := counts[id]
				if want == lr && got == 0 {
					if inflight != nil && !inflight.insert && inflight.id == id {
						continue // replayed in-flight delete: allowed
					}
					t.Fatalf("point %d (torn=%v): acked insert %d lost", point, torn, id)
				}
				if want == lr && got != lr {
					t.Fatalf("point %d (torn=%v): acked insert %d partially visible (%d/%d)", point, torn, id, got, lr)
				}
				if want == 0 && got != 0 {
					t.Fatalf("point %d (torn=%v): acked delete of %d resurfaced (%d entries)", point, torn, id, got)
				}
			}
			// NOTHING is partially indexed — acked, unacked, in-flight: every
			// object has 0 or exactly L·R entries.
			for id, got := range counts {
				if got != lr && got != 0 {
					t.Fatalf("point %d (torn=%v): id %d partially visible with %d of %d entries", point, torn, id, got, lr)
				}
			}
			// Acked inserts that survived (not deleted, acked or replayed
			// in-flight) are searchable.
			s := rec.NewSearcher()
			for id, want := range expect {
				if want != lr || counts[id] != lr {
					continue
				}
				res, _, err := s.Search(d.Vectors[id], 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Neighbors) == 0 || res.Neighbors[0].ID != id || res.Neighbors[0].Dist != 0 {
					t.Fatalf("point %d (torn=%v): acked insert %d not searchable", point, torn, id)
				}
			}
		}
	}
}

// TestGroupCommitCrashKeepsPrefix crashes inside the WAL append stream
// under a group-commit interval > 1 and checks the recovered state is an
// exact prefix of the acked operation sequence — the bounded-loss contract
// of relaxed fsync batching.
func TestGroupCommitCrashKeepsPrefix(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "walgc", N: 140, Queries: 5, Dim: 16, Clusters: 5, Spread: 0.05, Seed: 81,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	p := smallParams(t, d, n)
	lr := p.L * p.R()
	base := make([][]float32, n)
	copy(base, d.Vectors[:n])

	for crashAt := 1; crashAt <= 8; crashAt++ {
		// Crash budget counts only WAL appends here (no block wrapper), so
		// the crash lands mid-append-stream; FsyncEvery=4 batches commits.
		crasher := faultinject.NewCrasher(crashAt, true)
		dir := t.TempDir()
		ix := walFixture(t, d, p, n, dir, WALConfig{FsyncEvery: 4, Crash: crasher}, nil)
		crasher.Arm()
		var acked []uint32
		for i := n; i < n+8; i++ {
			id, err := ix.Insert(d.Vectors[i])
			if err != nil {
				break
			}
			acked = append(acked, id)
		}
		crasher.Disarm()

		rec, err := OpenWAL(dir, base, blockstore.NewMem(), WALConfig{})
		if err != nil {
			t.Fatalf("crashAt %d: recovery: %v", crashAt, err)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("crashAt %d: %v", crashAt, err)
		}
		counts, err := rec.EntryCounts()
		if err != nil {
			t.Fatal(err)
		}
		// Prefix property: recovered inserts are n, n+1, ..., n+k-1 for some
		// k ≤ len(acked)+1 — no gaps, nothing partial.
		recovered := 0
		for i := n; i < n+8; i++ {
			got := counts[uint32(i)]
			if got != 0 && got != lr {
				t.Fatalf("crashAt %d: id %d partially visible (%d/%d)", crashAt, i, got, lr)
			}
			if got == lr {
				if recovered != i-n {
					t.Fatalf("crashAt %d: recovered set has a gap before id %d", crashAt, i)
				}
				recovered++
			}
		}
		if recovered > len(acked)+1 {
			t.Fatalf("crashAt %d: recovered %d inserts but only %d were even attempted before the crash",
				crashAt, recovered, len(acked)+1)
		}
	}
}

// TestSaveFileAtomicOldImageSurvives fails a SaveFile mid-write (a
// permanently dead block makes the image serialization error out) and
// checks the previous image file is untouched.
func TestSaveFileAtomicOldImageSurvives(t *testing.T) {
	d, ix := buildUpdatable(t, 256, 4)
	_ = d
	path := filepath.Join(t.TempDir(), "index.img")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A second index whose store fails reads of block 3: Save hits the bad
	// block and errors after having already written part of the stream.
	data := make([][]float32, len(d.Vectors)-4)
	copy(data, d.Vectors[:len(data)])
	fb := faultinject.Wrap(blockstore.NewMemBackend(), faultinject.Schedule{
		Permanent: map[blockstore.Addr]bool{3: true},
	})
	ix2, err := Build(data, ix.Params(), DefaultOptions(), blockstore.NewWithBackend(fb))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix2.SaveFile(path); err == nil {
		t.Fatal("SaveFile over a dead block succeeded")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || string(got) != string(want) {
		t.Fatal("failed SaveFile corrupted the previous image")
	}
	dirEnts, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirEnts) != 1 {
		t.Fatalf("temp litter after failed SaveFile: %v", dirEnts)
	}
}
