package ioengine

import (
	"fmt"
	"testing"

	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
)

// TestReadZeroAllocs: the single-block Read that the searchers' in-line
// walk goes through while the engine is not blocking allocates nothing: a
// miss read from the backend, with or without a cache to fill, and a cache
// hit.
func TestReadZeroAllocs(t *testing.T) {
	buf := make([]byte, blockstore.BlockSize)
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			opts := Options{Depth: 16}
			if cached {
				cache, err := blockcache.New(256*blockstore.BlockSize, blockcache.Options{})
				if err != nil {
					t.Fatal(err)
				}
				opts.Cache = cache
			}
			eng, err := New(testStore(t, 8), opts)
			if err != nil {
				t.Fatal(err)
			}
			var st BatchStats
			read := func(miss bool) func() {
				return func() {
					if miss && cached {
						opts.Cache.Invalidate(3)
					}
					if err := eng.Read(3, buf, &st); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := testing.AllocsPerRun(100, read(true)); got != 0 {
				t.Errorf("a missing Read allocates %v times, want 0", got)
			}
			checkBlock(t, 3, buf)
			if eng.Blocking() {
				t.Fatal("the engine turned blocking over a memory store")
			}
			if !cached {
				return
			}
			st = BatchStats{}
			if got := testing.AllocsPerRun(100, read(false)); got != 0 {
				t.Errorf("a hitting Read allocates %v times, want 0", got)
			}
			if st.CacheHits == 0 || st.PhysicalReads != 0 {
				t.Errorf("the hitting Reads were not hits: %+v", st)
			}
		})
	}
}
