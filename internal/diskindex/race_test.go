package diskindex

import (
	"sync"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/ioengine"
)

func neighborIDs(ns []ann.Neighbor) []uint32 {
	ids := make([]uint32, len(ns))
	for i, nb := range ns {
		ids[i] = nb.ID
	}
	return ids
}

// TestConcurrentInsertSearch hammers every searcher flavor with queries
// while a writer inserts and deletes, exercising the update-lock discipline
// that replaced the old "serialize updates externally" caveat. Run under
// -race (the crash-recovery CI gate does) this is the concurrency proof;
// without it, it still checks queries never observe torn state or errors.
func TestConcurrentInsertSearch(t *testing.T) {
	type searchFn func(q []float32, k int) (ids []uint32, err error)
	mkSequential := func(t *testing.T, ix *Index) searchFn {
		s := ix.NewSearcher()
		return func(q []float32, k int) ([]uint32, error) {
			res, _, err := s.Search(q, k)
			return neighborIDs(res.Neighbors), err
		}
	}
	mkWave := func(t *testing.T, ix *Index) searchFn {
		ws := ix.NewWaveSearcher()
		return func(q []float32, k int) ([]uint32, error) {
			res, _, err := ws.Search(q, k)
			return neighborIDs(res.Neighbors), err
		}
	}
	variants := []struct {
		name  string
		setup func(t *testing.T, ix *Index) *Index // once, before the workload
		mk    func(t *testing.T, ix *Index) searchFn
	}{
		{"sequential", nil, mkSequential},
		{"wave", nil, mkWave},
		{"cached-readahead", func(t *testing.T, ix *Index) *Index {
			// Over a backend that blocks, so that readahead runs.
			return blockingEngine(t, ix, ioengine.Options{Depth: 16}, 1<<20, 2)
		}, mkWave},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			const n, extra = 1000, 20
			d, ix := buildUpdatable(t, n, extra)
			if v.setup != nil {
				ix = v.setup(t, ix)
			}
			var (
				stop = make(chan struct{})
				wg   sync.WaitGroup
			)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					search := v.mk(t, ix)
					for qi := 0; ; qi++ {
						select {
						case <-stop:
							return
						default:
						}
						q := d.Vectors[(g*271+qi*31)%n]
						if _, err := search(q, 5); err != nil {
							t.Errorf("reader %d: %v", g, err)
							return
						}
					}
				}(g)
			}
			// Writer: fill the spare ID space, deleting every third insert
			// and a few base objects along the way.
			var kept []uint32
			for i := n; i < n+extra; i++ {
				id, err := ix.Insert(d.Vectors[i])
				if err != nil {
					t.Errorf("insert %d: %v", i, err)
					break
				}
				if i%3 == 0 {
					if _, err := ix.Delete(id); err != nil {
						t.Errorf("delete %d: %v", id, err)
					}
				} else {
					kept = append(kept, id)
				}
			}
			for _, id := range []uint32{11, 42, 137} {
				if _, err := ix.Delete(id); err != nil {
					t.Errorf("delete base %d: %v", id, err)
				}
			}
			close(stop)
			wg.Wait()
			// Quiesced: every kept insert is self-searchable.
			search := v.mk(t, ix)
			for _, id := range kept {
				ids, err := search(d.Vectors[id], 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) == 0 || ids[0] != id {
					t.Fatalf("kept insert %d not self-found after quiesce: %v", id, ids)
				}
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
