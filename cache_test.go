package e2lshos

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestStorageOptionValidation(t *testing.T) {
	d := facadeDataset(t)
	if _, err := NewStorageIndex(d.Vectors, Config{}, WithReadahead(2)); err == nil ||
		!strings.Contains(err.Error(), "WithBlockCache") {
		t.Errorf("readahead without a cache accepted (err=%v)", err)
	}
	if _, err := NewStorageIndex(d.Vectors, Config{}, WithBlockCache(-1)); err == nil {
		t.Error("negative cache size accepted")
	}
	if _, err := NewStorageIndex(d.Vectors, Config{}, WithBlockCache(4<<20), WithReadahead(-1)); err == nil {
		t.Error("negative readahead depth accepted")
	}
	// The cache and the retry layer live in the I/O engine: asking for
	// either attaches one at the default depth, WithIOEngine names the depth,
	// and with none of them there is no engine at all.
	for _, tc := range []struct {
		name  string
		opts  []StorageOption
		depth int
	}{
		{"no options", nil, 0},
		{"cache only", []StorageOption{WithBlockCache(4 << 20)}, defaultIODepth},
		{"retries only", []StorageOption{WithRetries(2)}, defaultIODepth},
		{"explicit depth", []StorageOption{WithBlockCache(4 << 20), WithRetries(2), WithIOEngine(4)}, 4},
	} {
		ix, err := NewStorageIndex(d.Vectors, Config{}, tc.opts...)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := ix.IODepth(); got != tc.depth {
			t.Errorf("%s: I/O depth %d, want %d", tc.name, got, tc.depth)
		}
	}
}

// TestCachedStorageIndexParity: the caching tier must be invisible to
// answers while its counters account for every logical read.
func TestCachedStorageIndexParity(t *testing.T) {
	ctx := context.Background()
	d := facadeDataset(t)
	plain, err := NewStorageIndex(d.Vectors, Config{Sigma: 16})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewStorageIndex(d.Vectors, Config{Sigma: 16},
		WithBlockCache(32<<20), WithReadahead(2))
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt, err := plain.BatchSearch(ctx, d.Queries, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := cached.BatchSearch(ctx, d.Queries, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	for qi := range want {
		if len(want[qi].Neighbors) != len(got[qi].Neighbors) {
			t.Fatalf("query %d: neighbor count differs with cache", qi)
		}
		for i := range want[qi].Neighbors {
			if want[qi].Neighbors[i].ID != got[qi].Neighbors[i].ID {
				t.Fatalf("query %d: neighbor %d differs with cache", qi, i)
			}
		}
	}
	if wantSt.CacheHits != 0 || wantSt.CacheMisses != 0 || wantSt.PrefetchedBlocks != 0 {
		t.Errorf("uncached engine reported cache counters: %+v", wantSt)
	}
	if gotSt.CacheHits+gotSt.CacheMisses != gotSt.TableIOs+gotSt.BucketIOs {
		t.Errorf("cache outcomes %d+%d do not cover the %d logical reads",
			gotSt.CacheHits, gotSt.CacheMisses, gotSt.TableIOs+gotSt.BucketIOs)
	}
	// The cache lives in the I/O engine, whose dedup table sits in front of
	// it: a read that joined another worker's in-flight read is a hit to the
	// query but never probed the cache.
	hits, misses, _ := cached.CacheStats()
	if hits+int64(gotSt.DedupedReads) != int64(gotSt.CacheHits) {
		t.Errorf("CacheStats hits %d + %d deduped != folded stats %d", hits, gotSt.DedupedReads, gotSt.CacheHits)
	}
	if misses < int64(gotSt.CacheMisses) {
		t.Errorf("CacheStats misses %d below folded demand misses %d", misses, gotSt.CacheMisses)
	}
	// A second identical batch must be mostly hits.
	_, again, err := cached.BatchSearch(ctx, d.Queries, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHits <= again.CacheMisses {
		t.Errorf("repeat batch: %d hits vs %d misses; cache not retaining the working set",
			again.CacheHits, again.CacheMisses)
	}
}

// TestShardedCacheStatsFold: per-shard cache counters must fold through
// ShardedIndex.Stats like every other work counter.
func TestShardedCacheStatsFold(t *testing.T) {
	ctx := context.Background()
	d := facadeDataset(t)
	cfg := ShardConfig(Config{Sigma: 16}, d.Vectors, 2)
	ix, err := NewShardedIndex(d.Vectors, 2, PlaceRange, StorageShardBuilder(cfg, WithBlockCache(16<<20)))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ix.BatchSearch(ctx, d.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits+st.CacheMisses != st.TableIOs+st.BucketIOs {
		t.Errorf("sharded fold lost cache outcomes: %d+%d vs %d logical reads",
			st.CacheHits, st.CacheMisses, st.TableIOs+st.BucketIOs)
	}
	if st.CacheMisses == 0 {
		t.Error("cold sharded run reported no cache misses")
	}
}

// TestServerStatsSurfaceCacheCounters: /stats must expose the cache
// counters of a cached engine.
func TestServerStatsSurfaceCacheCounters(t *testing.T) {
	d := facadeDataset(t)
	eng, err := NewStorageIndex(d.Vectors, Config{Sigma: 16}, WithBlockCache(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(eng, ServerConfig{Dim: d.Dim, K: 1, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"query": d.Queries[0]})
	resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/search returned %d", resp.StatusCode)
	}
	stats, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(stats.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cache_hits", "cache_misses", "prefetched_blocks"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("/stats missing %q", key)
		}
	}
	if decoded["cache_misses"].(float64) == 0 {
		t.Error("/stats cache_misses zero after a cold query on a cached engine")
	}
}
