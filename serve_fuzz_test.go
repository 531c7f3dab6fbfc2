package e2lshos

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSearchV1Request: whatever bytes arrive as a /v1/search body, a server
// over a real in-memory engine answers 200, 400 or 413 — never a 5xx, never a
// panic (the fuzzer fails on one) — and still answers a well-formed request
// afterwards. The request is the one place input from outside the process
// picks the engine's knobs.
func FuzzSearchV1Request(f *testing.F) {
	const valid = `{"query":[0.1,0.2,0.3,0.4],"k":2,"budget":64,"multiprobe":2,"recall_target":0.9,"latency_budget_ms":5,"degrade":"stop"}`
	for _, seed := range []string{
		valid,
		`{"query":[0.1,0.2,0.3,0.4]}`,
		`{"query":[0.1,0.2,0.3,0.4],"multiprobe":4000000000000000000}`,
		`{"query":[0.1,0.2,0.3,0.4],"multiprobe":300000}`,
		`{"query":[0.1,0.2,0.3,0.4],"latency_budget_ms":1e16}`,
		`{"query":[0.1,0.2,0.3,0.4]} trailing`,
		`{"query":[0.1,0.2,0.3,0.4],"pad":"` + strings.Repeat("x", 70<<10) + `"}`,
	} {
		f.Add([]byte(seed))
	}
	ds, err := GenerateDataset(DatasetSpec{Name: "fuzz", N: 300, Dim: 4, Queries: 1, Clusters: 4, Spread: 0.05, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	ix, err := NewInMemoryIndex(ds.Vectors, Config{})
	if err != nil {
		f.Fatal(err)
	}
	ix.EnableAutotune()
	srv, err := NewServer(ix, ServerConfig{Dim: 4, K: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	post := func(body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", strings.NewReader(body)))
		return rec.Code
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if code := post(string(body)); code != 200 && code != 400 && code != 413 {
			t.Errorf("body %q answered %d, want 200, 400 or 413", body, code)
		}
		if code := post(valid); code != 200 {
			t.Fatalf("after body %q a well-formed request answered %d", body, code)
		}
	})
}
