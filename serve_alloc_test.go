package e2lshos

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// Allocation ceilings per /v1/search request through Server.Handler(), after
// warm-up, for a 128-d top-10 query against the shipped lshserve shape (a
// telemetry-enabled ShardedIndex of StorageIndex shards behind the
// coalescer). The harness reuses one request and a discarding writer, so
// this is the handler's own garbage — JSON decode and encode, the coalescer
// slot, the shard scatter and each shard's one-query batch — and reads below
// a live server, which adds net/http's own ≈2.5 KB. Before the serve path
// pooled its per-request and per-batch state this test body read 13 487 B /
// 121 allocations on four shards and 6 905 B / 70 on one; with it, 5 853 B /
// 58 and 3 112 B / 37 (6 831 B / 62 and 4 295 B / 41 under the race
// detector, which the ceilings leave room for; the one-shard figures were
// taken while an unsharded engine still held a lone query on a reused timer).
// Every byte ceiling is under 70% of the earlier reading.
const (
	handleSearchBytes4Shards  = 7400
	handleSearchAllocs4Shards = 66
	handleSearchBytes1Shard   = 4600
	handleSearchAllocs1Shard  = 44
)

// discardWriter is the cheapest http.ResponseWriter: one reused header map,
// the last status, and no body.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestHandleSearchAllocBudget is the allocation gate on the HTTP handler:
// what one /v1/search costs in heap bytes and allocations, process-wide
// (the batch, scatter and worker goroutines included), measured as
// runtime.MemStats deltas over 600 requests.
func TestHandleSearchAllocBudget(t *testing.T) {
	const n, k, warm, runs = 8000, 10, 200, 600
	ds, err := GeneratePaperDataset(SIFT, 0, n, 64)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, len(ds.Queries))
	for i, q := range ds.Queries {
		if bodies[i], err = json.Marshal(searchRequestV1{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name          string
		shards        int
		bytes, allocs float64
	}{
		{"4-shards", 4, handleSearchBytes4Shards, handleSearchAllocs4Shards},
		{"1-shard", 1, handleSearchBytes1Shard, handleSearchAllocs1Shard},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ShardConfig(Config{Sigma: 8}, ds.Vectors, tc.shards)
			eng, err := NewShardedIndex(ds.Vectors, tc.shards, PlaceHash, StorageShardBuilder(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.EnableTelemetry(); err != nil { // lshserve's -metrics default
				t.Fatal(err)
			}
			srv, err := NewServer(eng, ServerConfig{Dim: ds.Dim, K: k})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()

			var body bytes.Reader
			req := httptest.NewRequest("POST", "/v1/search", &body)
			w := &discardWriter{h: http.Header{}}
			i := 0
			serve := func() {
				body.Reset(bodies[i%len(bodies)])
				i++
				w.code = 0
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					t.Fatalf("/v1/search returned %d", w.code)
				}
			}
			for j := 0; j < warm; j++ { // size the pooled searchers and scratch
				serve()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for j := 0; j < runs; j++ {
				serve()
			}
			runtime.ReadMemStats(&after)
			gotBytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			gotAllocs := float64(after.Mallocs-before.Mallocs) / runs
			t.Logf("handler: %.0f B/request, %.1f allocs/request (ceilings %.0f B, %.0f allocs)",
				gotBytes, gotAllocs, tc.bytes, tc.allocs)
			if gotBytes > tc.bytes {
				t.Errorf("/v1/search allocates %.0f B per request, want at most %.0f", gotBytes, tc.bytes)
			}
			if gotAllocs > tc.allocs {
				t.Errorf("/v1/search allocates %.1f times per request, want at most %.0f", gotAllocs, tc.allocs)
			}
		})
	}
}
