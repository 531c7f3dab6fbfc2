package diskindex

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"e2lshos/internal/ladder"
)

const mutationGoldenPath = "testdata/mutation_golden.txt"

// TestMutationGoldenDigest pins what both disk searchers return after a fixed
// update history — neighbors, distance bits and every logical counter, per
// query — to digests recorded before buckets shared blocks. The history
// covers inserts (appends, a bucket grown past one block), deletes in the
// middle of a bucket and of a chain, a delete that empties buckets, and a WAL
// replay of the whole history with idem set, on an index with small buckets
// (most share a block) and one with u = 6 (long chains too).
func TestMutationGoldenDigest(t *testing.T) {
	const n = 600
	ctx := context.Background()
	got := map[string]string{}
	for _, u := range []uint{0, 6} {
		opts := DefaultOptions()
		opts.TableBits = u
		d, ix := buildUpdatableWith(t, n, 40, opts)
		ref := ix.NewSearcher()
		queries := append(append([][]float32{}, d.Queries...), d.Vectors[n], d.Vectors[n+7], d.Vectors[0])
		record := func(stage string) {
			// The wave searcher reads through an engine, as the ladder
			// golden's does, on a view made after the stage's updates: a
			// view holds the dataset as it was when made.
			ws := engineAttached(t, ix, 4, 0, 0).NewWaveSearcher()
			budgets := []struct {
				name string
				s    int
			}{{"generous", 1000 * ix.params.L}, {"truncating", 2 * ix.params.L}}
			for _, b := range budgets {
				for _, mp := range []int{0, 2} {
					kn := ladder.Knobs{K: 5, Budget: b.s, MultiProbe: mp}
					var refD, waveD []string
					for _, q := range queries {
						rres, rst, err := ref.Run(ctx, q, kn, nil)
						if err != nil {
							t.Fatal(err)
						}
						refD = append(refD, diskDigest(rres, rst))
						wres, wst, err := ws.Run(ctx, q, kn, nil)
						if err != nil {
							t.Fatal(err)
						}
						waveD = append(waveD, diskDigest(wres, wst))
					}
					key := fmt.Sprintf("u=%d/%s/mp=%d/budget=%s", u, stage, mp, b.name)
					got["ref/"+key] = strings.Join(refD, " ")
					got["wave/"+key] = strings.Join(waveD, " ")
				}
			}
		}
		// log is the history as WAL records would carry it: an insert's
		// vector, or nil for a delete of id.
		type op struct {
			id  uint32
			vec []float32
		}
		var log []op
		insert := func(v []float32) uint32 {
			id, err := ix.Insert(v)
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, op{id, v})
			return id
		}
		del := func(id uint32) {
			if _, err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
			log = append(log, op{id, nil})
		}
		record("built")

		for i := n; i < n+20; i++ {
			insert(d.Vectors[i])
		}
		// 110 copies of one vector push its buckets past one block.
		var dups []uint32
		for i := 0; i < 110; i++ {
			dups = append(dups, insert(d.Vectors[3]))
		}
		record("insert")

		for id := uint32(7); id < n; id += 41 {
			del(id)
		}
		for _, i := range []int{5, 50, 100} {
			del(dups[i])
		}
		del(uint32(n + 4))
		record("delete")

		far := make([]float32, len(d.Vectors[0]))
		for i := range far {
			far[i] = 1e3
		}
		id := insert(far)
		before := occupiedBuckets(ix)
		del(id)
		if after := occupiedBuckets(ix); after >= before {
			t.Fatalf("u=%d: deleting the outlier emptied no bucket (%d occupied before, %d after)", u, before, after)
		}
		record("empty")

		ix.upd.mu.Lock()
		for _, o := range log {
			var err error
			if o.vec != nil {
				err = ix.applyInsertLocked(o.id, o.vec, true)
			} else {
				_, err = ix.applyDeleteLocked(o.id)
			}
			if err != nil {
				ix.upd.mu.Unlock()
				t.Fatal(err)
			}
		}
		ix.upd.mu.Unlock()
		record("replay")
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("u=%d: %v", u, err)
		}
	}
	checkGoldenFile(t, mutationGoldenPath, got)
}

// occupiedBuckets counts the set occupancy bits of every table.
func occupiedBuckets(ix *Index) int {
	c := 0
	for _, radius := range ix.occupied {
		for _, bm := range radius {
			for _, w := range bm {
				for ; w != 0; w &= w - 1 {
					c++
				}
			}
		}
	}
	return c
}

// checkGoldenFile compares got — configuration key to space-separated
// per-query digests — against the golden file at path, or rewrites the file
// under -update-golden.
func checkGoldenFile(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for key := range got {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, key := range keys {
			fmt.Fprintf(&sb, "%s %s\n", key, got[key])
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		key, want, _ := strings.Cut(sc.Text(), " ")
		seen++
		have, ok := got[key]
		if !ok {
			t.Errorf("%s: in the golden file but not produced by this run", key)
			continue
		}
		hs, wsum := strings.Fields(have), strings.Fields(want)
		for qi := range wsum {
			if qi >= len(hs) || hs[qi] != wsum[qi] {
				t.Errorf("%s: query %d digest differs from the recorded one (of %d queries)", key, qi, len(wsum))
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(got) {
		t.Errorf("golden file has %d configurations, this run produced %d", seen, len(got))
	}
}
