package e2lshos

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"e2lshos/internal/blockstore"
)

// modelCombo is one combination of storage options under the model test,
// with the index it currently serves from.
type modelCombo struct {
	name    string
	shards  int
	engine  bool
	opts    []StorageOption // WithShards and the I/O engine's options
	backend bool            // every open recovers onto a fresh caller backend
	dir     string          // the WAL directory; "" for the reference, never reopened
	ix      *StorageIndex
}

// reopen recovers the combination's WAL directory with OpenWALIndex. The
// index it replaces is abandoned without a clean shutdown.
func (c *modelCombo) reopen(base [][]float32) error {
	opts := c.opts
	if c.backend {
		opts = append(opts[:len(opts):len(opts)], WithStorageBackend(blockstore.NewMemBackend()))
	}
	ix, err := OpenWALIndex(c.dir, base, opts...)
	if err != nil {
		return fmt.Errorf("%s: reopen: %w", c.name, err)
	}
	c.ix = ix
	return nil
}

// TestStorageOptionModel runs seeded random histories — insert, delete,
// search, Checkpoint, crash (OpenWALIndex over a directory whose index was
// never shut down) and reopen (a Checkpoint, then OpenWALIndex, which
// replays nothing) — in lockstep on every combination of {1, 3} hash
// partitions × {no I/O engine, WithIOEngine(4) with WithBlockCache} × three
// ways to start a crash-safe index: built with WithWAL, an OpenStorageIndex
// image plus WithWAL, and OpenWALIndex recovered onto WithStorageBackend.
// Within one partition count every combination returns the neighbors of a
// reference index built without a log and never reopened, bit for bit, and
// its logical N_IO (at the index's own budget, only among combinations with
// the same engine setting: in line a round stops at the budget while an
// engine reads it whole); with an unbounded budget every combination returns
// the brute-force answer over the live objects.
func TestStorageOptionModel(t *testing.T) {
	d, err := GenerateDataset(DatasetSpec{
		Name: "model", N: 800, Queries: 8, Dim: 8,
		Clusters: 6, Spread: 0.08, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, pool := d.Vectors[:600], d.Vectors[600:]
	cfg := Config{Sigma: 4, Rho: 0.5, Gamma: 0.1}
	img := filepath.Join(t.TempDir(), "base.e2ix")
	plain, err := NewStorageIndex(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.SaveFile(img); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var combos []*modelCombo
			for _, shards := range []int{1, 3} {
				ref, err := NewStorageIndex(base, cfg, WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				combos = append(combos, &modelCombo{name: fmt.Sprintf("shards=%d/reference", shards), shards: shards, ix: ref})
				for _, engine := range []bool{false, true} {
					opts := []StorageOption{WithShards(shards)}
					eng := "in line"
					if engine {
						opts = append(opts, WithIOEngine(4), WithBlockCache(1<<20))
						eng = "engine"
					}
					for _, kind := range []string{"built", "image", "recovered"} {
						c := &modelCombo{
							name:   fmt.Sprintf("shards=%d/%s/%s", shards, eng, kind),
							shards: shards, engine: engine, opts: opts, dir: t.TempDir(),
						}
						withWAL := append(opts[:len(opts):len(opts)], WithWAL(c.dir))
						switch kind {
						case "built":
							c.ix, err = NewStorageIndex(base, cfg, withWAL...)
						case "image":
							c.ix, err = OpenStorageIndex(img, base, withWAL...)
						case "recovered":
							if _, err = NewStorageIndex(base, cfg, WithWAL(c.dir)); err == nil {
								c.backend = true
								err = c.reopen(base)
							}
						}
						if err != nil {
							t.Fatalf("%s: %v", c.name, err)
						}
						combos = append(combos, c)
					}
				}
			}
			runModelHistory(t, rand.New(rand.NewSource(seed)), combos, base, pool, d.Queries)
		})
	}
}

// runModelHistory drives one seeded history through every combination.
func runModelHistory(t *testing.T, rng *rand.Rand, combos []*modelCombo, base, pool, queries [][]float32) {
	ctx := context.Background()
	vecs := append([][]float32(nil), base...) // every object by ID, live or not
	live := make([]bool, len(base))
	for i := range live {
		live[i] = true
	}
	unlogged := 0 // records since the last checkpoint: what a crash replays
	const steps = 60
	for step := 0; step < steps; step++ {
		op := rng.Intn(20)
		switch {
		case op < 6 && len(vecs)-len(base) < len(pool): // insert
			v := pool[len(vecs)-len(base)]
			for _, c := range combos {
				id, err := c.ix.Insert(v)
				if err != nil || int(id) != len(vecs) {
					t.Fatalf("step %d %s: insert = %d, %v; want ID %d", step, c.name, id, err, len(vecs))
				}
			}
			vecs, live = append(vecs, v), append(live, true)
			unlogged++
		case op < 9: // delete, sometimes of an object already gone
			id := uint32(rng.Intn(len(vecs)))
			for _, c := range combos {
				removed, err := c.ix.Delete(id)
				if err != nil || removed != live[id] {
					t.Fatalf("step %d %s: delete %d = %v, %v; want %v", step, c.name, id, removed, err, live[id])
				}
			}
			live[id] = false
			unlogged++
		case op < 16: // search
			q := queries[rng.Intn(len(queries))]
			if rng.Intn(2) == 0 {
				q = vecs[rng.Intn(len(vecs))]
			}
			modelSearch(t, ctx, fmt.Sprintf("step %d", step), combos, q, vecs, live)
		case op < 18: // checkpoint
			for _, c := range logged(combos) {
				if err := c.ix.Checkpoint(); err != nil {
					t.Fatalf("step %d %s: checkpoint: %v", step, c.name, err)
				}
			}
			unlogged = 0
		case op < 19: // crash
			for _, c := range logged(combos) {
				if err := c.reopen(base); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if st := c.ix.RecoveryStats(); st.Replayed != unlogged {
					t.Fatalf("step %d %s: crash recovery replayed %d records, want %d", step, c.name, st.Replayed, unlogged)
				}
			}
		default: // reopen
			for _, c := range logged(combos) {
				if err := c.ix.Checkpoint(); err != nil {
					t.Fatalf("step %d %s: checkpoint: %v", step, c.name, err)
				}
				if err := c.reopen(base); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if st := c.ix.RecoveryStats(); st.Replayed != 0 {
					t.Fatalf("step %d %s: reopen after a checkpoint replayed %d records", step, c.name, st.Replayed)
				}
			}
			unlogged = 0
		}
	}
	for qi, q := range queries {
		modelSearch(t, ctx, fmt.Sprintf("final query %d", qi), combos, q, vecs, live)
	}
}

// logged returns the combinations that keep a write-ahead log.
func logged(combos []*modelCombo) []*modelCombo {
	var out []*modelCombo
	for _, c := range combos {
		if c.dir != "" {
			out = append(out, c)
		}
	}
	return out
}

// modelSearch runs q on every combination, at the index's own budget and at
// an unbounded one, and checks the answers against each other and the
// unbounded ones against brute force over the live objects.
func modelSearch(t *testing.T, ctx context.Context, at string, combos []*modelCombo, q []float32, vecs [][]float32, live []bool) {
	t.Helper()
	const k = 5
	exact := bruteForce(q, vecs, live, k)
	for _, budget := range []int{0, 1 << 30} {
		type answer struct {
			nbrs []Neighbor
			ios  int
		}
		first := map[string]answer{} // per partition count, and per partition count and engine setting
		for _, c := range combos {
			res, st, err := c.ix.Search(ctx, q, WithK(k), WithBudget(budget))
			if err != nil {
				t.Fatalf("%s %s budget=%d: %v", at, c.name, budget, err)
			}
			got := answer{res.Neighbors, st.IOs()}
			for _, nb := range got.nbrs {
				if !live[nb.ID] {
					t.Fatalf("%s %s budget=%d: deleted object %d answered", at, c.name, budget, nb.ID)
				}
			}
			keys := []string{fmt.Sprint(c.shards), fmt.Sprint(c.shards, c.engine)}
			for i, key := range keys {
				want, ok := first[key]
				if !ok {
					first[key] = got
					continue
				}
				if !reflect.DeepEqual(got.nbrs, want.nbrs) {
					t.Fatalf("%s %s budget=%d: neighbors %v, want %v", at, c.name, budget, got.nbrs, want.nbrs)
				}
				if (i == 1 || budget != 0) && got.ios != want.ios {
					t.Fatalf("%s %s budget=%d: N_IO %d, want %d", at, c.name, budget, got.ios, want.ios)
				}
			}
			if budget != 0 {
				ids := make([]uint32, len(got.nbrs))
				for i, nb := range got.nbrs {
					ids[i] = nb.ID
				}
				if !reflect.DeepEqual(ids, exact) {
					t.Fatalf("%s %s: unbounded search answered %v, brute force %v", at, c.name, ids, exact)
				}
			}
		}
	}
}

// bruteForce returns the IDs of the k live objects nearest q, nearest first
// and ties by ID.
func bruteForce(q []float32, vecs [][]float32, live []bool, k int) []uint32 {
	type cand struct {
		id uint32
		d  float64
	}
	var cs []cand
	for id, v := range vecs {
		if !live[id] {
			continue
		}
		var s float64
		for j := range v {
			x := float64(v[j]) - float64(q[j])
			s += x * x
		}
		cs = append(cs, cand{uint32(id), s})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].d != cs[j].d {
			return cs[i].d < cs[j].d
		}
		return cs[i].id < cs[j].id
	})
	ids := make([]uint32, 0, k)
	for _, c := range cs[:min(k, len(cs))] {
		ids = append(ids, c.id)
	}
	return ids
}
