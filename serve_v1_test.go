package e2lshos

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"e2lshos/internal/ann"
)

// captureEngine records the resolved settings of every BatchSearch and
// answers with canned per-query stats through WithStatsInto.
type captureEngine struct {
	mu   sync.Mutex
	sets []searchSettings
	st   Stats
}

func (e *captureEngine) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	res, _, err := e.BatchSearch(ctx, [][]float32{q}, opts...)
	return res[0], e.st, err
}

func (e *captureEngine) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	set, err := resolveSettings(opts)
	if err != nil {
		return nil, Stats{}, err
	}
	e.mu.Lock()
	e.sets = append(e.sets, set)
	e.mu.Unlock()
	results := make([]Result, len(queries))
	agg := Stats{}
	for i := range results {
		results[i] = Result{Neighbors: []ann.Neighbor{{ID: 7, Dist: 0.5}, {ID: 9, Dist: 1.5}}}
		if i < len(set.statsInto) {
			set.statsInto[i] = e.st
		}
		agg.Merge(e.st)
	}
	return results, agg, nil
}

func (e *captureEngine) last(t *testing.T) searchSettings {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.sets) == 0 {
		t.Fatal("engine never saw a batch")
	}
	return e.sets[len(e.sets)-1]
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
	return rec
}

// TestSearchV1Envelope: /v1/search answers the structured envelope —
// neighbors, per-query stats, and the controller's actions for exactly this
// query.
func TestSearchV1Envelope(t *testing.T) {
	eng := &captureEngine{st: Stats{
		Queries: 1, Radii: 3, Probes: 11, Checked: 40,
		TableIOs: 5, BucketIOs: 7, CacheHits: 2, CacheMisses: 10, PhysicalReads: 8,
		RoundsSkipped: 4, BudgetExhausted: 1, DegradedKnobs: 2,
	}}
	srv, err := NewServer(eng, ServerConfig{Dim: 2, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	rec := postJSON(t, h, "/v1/search", searchRequestV1{Query: []float32{1, 2}})
	if rec.Code != 200 {
		t.Fatalf("/v1/search returned %d: %s", rec.Code, rec.Body)
	}
	var resp searchResponseV1
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.K != 2 || len(resp.Neighbors) != 2 || resp.Neighbors[0].ID != 7 {
		t.Errorf("envelope neighbors = %+v", resp)
	}
	if resp.Stats.NIO != 12 || resp.Stats.Radii != 3 || resp.Stats.PhysicalReads != 8 {
		t.Errorf("envelope stats = %+v", resp.Stats)
	}
	if resp.Controller.RoundsSkipped != 4 || !resp.Controller.BudgetExhausted || resp.Controller.DegradedKnobs != 2 {
		t.Errorf("envelope controller = %+v", resp.Controller)
	}

	// The degraded query counted into the serving-level degraded counter.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Degraded != 1 || st.RoundsSkipped != 4 || st.BudgetExhausted != 1 || st.DegradedKnobs != 2 {
		t.Errorf("/stats controller counters = degraded %d, rounds_skipped %d, budget_exhausted %d, degraded_knobs %d",
			st.Degraded, st.RoundsSkipped, st.BudgetExhausted, st.DegradedKnobs)
	}
}

// TestSearchV1PerRequestKnobs: request knobs reach the engine's resolved
// settings, and omitted knobs inherit the server defaults.
func TestSearchV1PerRequestKnobs(t *testing.T) {
	eng := &captureEngine{st: Stats{Queries: 1}}
	srv, err := NewServer(eng, ServerConfig{
		Dim: 2, K: 1,
		Opts:   []SearchOption{WithBudget(300), WithMultiProbe(2)},
		Tuning: SearchTuning{RecallTarget: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	mp := 0
	rec := postJSON(t, h, "/v1/search", searchRequestV1{
		Query: []float32{1, 2}, MultiProbe: &mp, Budget: 500,
		RecallTarget: 0.95, LatencyBudgetMS: 2.5, Degrade: "stop",
	})
	if rec.Code != 200 {
		t.Fatalf("/v1/search returned %d: %s", rec.Code, rec.Body)
	}
	set := eng.last(t)
	if set.multiProbe != 0 || set.budget != 500 {
		t.Errorf("knobs = multiProbe %d budget %d", set.multiProbe, set.budget)
	}
	if set.tuning.RecallTarget != 0.95 || set.tuning.LatencyBudget != 2500*time.Microsecond || set.tuning.Degrade != DegradeStop {
		t.Errorf("tuning = %+v", set.tuning)
	}

	// Omitted knobs inherit the configured defaults (including the server
	// Tuning).
	rec = postJSON(t, h, "/v1/search", searchRequestV1{Query: []float32{1, 2}})
	if rec.Code != 200 {
		t.Fatalf("/v1/search returned %d: %s", rec.Code, rec.Body)
	}
	set = eng.last(t)
	if set.budget != 300 || set.multiProbe != 2 || set.tuning.RecallTarget != 0.8 {
		t.Errorf("default knobs = budget %d multiProbe %d target %g", set.budget, set.multiProbe, set.tuning.RecallTarget)
	}

	// A client still sending the retired "fanout" field keeps working: the
	// decoder ignores fields the request no longer has.
	rec = postJSON(t, h, "/v1/search", map[string]any{"query": []float32{1, 2}, "fanout": 32})
	if rec.Code != 200 {
		t.Errorf("/v1/search with a retired field returned %d: %s", rec.Code, rec.Body)
	}
}

// TestSearchV1Validation: malformed knobs are rejected with 400 before any
// engine work.
func TestSearchV1Validation(t *testing.T) {
	eng := &captureEngine{st: Stats{Queries: 1}}
	srv, err := NewServer(eng, ServerConfig{Dim: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	for name, req := range map[string]searchRequestV1{
		"wrong dim":       {Query: []float32{1}},
		"target too high": {Query: []float32{1, 2}, RecallTarget: 1},
		"negative budget": {Query: []float32{1, 2}, Budget: -5},
		"negative ms":     {Query: []float32{1, 2}, LatencyBudgetMS: -1},
		"bad degrade":     {Query: []float32{1, 2}, Degrade: "maybe"},
	} {
		if rec := postJSON(t, h, "/v1/search", req); rec.Code != 400 {
			t.Errorf("%s: got %d, want 400", name, rec.Code)
		}
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if len(eng.sets) != 0 {
		t.Errorf("invalid requests reached the engine %d times", len(eng.sets))
	}
}

// TestLegacySearchRouteGone: the pre-v1 POST /search shim is no longer
// routed — /v1/search is the one search endpoint, and it still trims the
// server's top-K to the k a request asks for.
func TestLegacySearchRouteGone(t *testing.T) {
	eng := &captureEngine{st: Stats{Queries: 1}}
	srv, err := NewServer(eng, ServerConfig{Dim: 2, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	req := searchRequestV1{Query: []float32{1, 2}, K: 1}
	if rec := postJSON(t, h, "/search", req); rec.Code != 404 {
		t.Errorf("POST /search returned %d, want 404", rec.Code)
	}
	rec := postJSON(t, h, "/v1/search", req)
	if rec.Code != 200 {
		t.Fatalf("/v1/search returned %d: %s", rec.Code, rec.Body)
	}
	var resp searchResponseV1
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.K != 1 || len(resp.Neighbors) != 1 {
		t.Errorf("k=1 request answered k=%d with %d neighbors", resp.K, len(resp.Neighbors))
	}
}

// blockingEngine stalls every batch until released, to fill the admission
// queue deterministically; entered signals each batch's start.
type blockingEngine struct{ entered, release chan struct{} }

func (e blockingEngine) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	res, _, err := e.BatchSearch(ctx, [][]float32{q}, opts...)
	return res[0], Stats{Queries: 1}, err
}

func (e blockingEngine) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	e.entered <- struct{}{}
	<-e.release
	return make([]Result, len(queries)), Stats{Queries: len(queries)}, nil
}

// shardedStub is an engine that only says how many shards it has.
type shardedStub struct {
	blockingEngine
	shards int
}

func (e shardedStub) Shards() int { return e.shards }

// TestServerAdmission: the coalescer is sized from what a lone query
// occupies — a sharded engine gets the processors divided by its shards and
// never holds; an unsharded one gets a slot per processor and the hold.
func TestServerAdmission(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name     string
		eng      Engine
		maxDelay time.Duration
		slots    int
		hold     time.Duration
	}{
		{"unsharded, default hold", blockingEngine{}, 0, procs, 500 * time.Microsecond},
		{"unsharded, given hold", blockingEngine{}, time.Millisecond, procs, time.Millisecond},
		{"unsharded, hold off", blockingEngine{}, -1, procs, 0},
		{"one shard is unsharded", shardedStub{shards: 1}, 0, procs, 500 * time.Microsecond},
		{"as many shards as processors", shardedStub{shards: procs + 1}, time.Millisecond, 1, 0},
		{"more shards than processors", shardedStub{shards: 4 * (procs + 1)}, 0, 1, 0},
	} {
		if slots, hold := admission(tc.eng, tc.maxDelay); slots != tc.slots || hold != tc.hold {
			t.Errorf("%s: admission = %d slots, hold %v; want %d, %v", tc.name, slots, hold, tc.slots, tc.hold)
		}
	}
	if slots, _ := admission(shardedStub{shards: 2}, 0); slots != max(procs/2, 1) {
		t.Errorf("two shards on %d processors: %d slots, want %d", procs, slots, max(procs/2, 1))
	}
}

// TestOverloadSheds429: a full admission queue sheds with 429 + Retry-After
// (backpressure, not failure), and /stats counts the shed separately from
// controller degrades.
func TestOverloadSheds429(t *testing.T) {
	eng := blockingEngine{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv, err := NewServer(eng, ServerConfig{
		Dim: 2, K: 1, MaxBatch: 1, MaxQueue: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postJSON(t, h, "/v1/search", searchRequestV1{Query: []float32{1, 2}}) }()
	// Once the engine holds the batch, the first request owns the queue's
	// only slot: the probe below must shed.
	<-eng.entered
	rec := postJSON(t, h, "/v1/search", searchRequestV1{Query: []float32{1, 2}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("probe under overload returned %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got == "" {
		t.Error("429 without Retry-After")
	}
	close(eng.release)
	if rec := <-first; rec.Code != 200 {
		t.Fatalf("first request returned %d: %s", rec.Code, rec.Body)
	}
	srv.Close()

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Shed == 0 {
		t.Error("shed counter stayed zero")
	}
	if st.Degraded != 0 {
		t.Errorf("sheds leaked into the degraded counter: %d", st.Degraded)
	}
}
