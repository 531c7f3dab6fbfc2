package e2lshos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"e2lshos/internal/ann"
)

// captureEngine records the resolved settings of every BatchSearch — the
// per-query knobs a coalesced batch carries are set.each — and answers with
// canned per-query stats through the stats destination.
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
	set, err := resolveSettings(opts, len(queries))
	if err != nil {
		return nil, Stats{}, err
	}
	set.each = slices.Clone(set.each) // the server reuses the slice once this call returns
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

// TestSearchV1PerRequestKnobs: request knobs reach the engine beside their
// query, and omitted knobs inherit the server defaults.
func TestSearchV1PerRequestKnobs(t *testing.T) {
	eng := &captureEngine{st: Stats{Queries: 1}}
	srv, err := NewServer(eng, ServerConfig{
		Dim: 2, K: 1,
		Opts: []SearchOption{WithBudget(300), WithMultiProbe(2), WithTuning(SearchTuning{RecallTarget: 0.8})},
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
	if len(set.each) != 1 {
		t.Fatalf("a one-query batch carried %d per-query knobs", len(set.each))
	}
	kn := set.each[0]
	if kn.K != 1 || kn.MultiProbe != 0 || kn.Budget != 500 {
		t.Errorf("knobs = k %d multiProbe %d budget %d", kn.K, kn.MultiProbe, kn.Budget)
	}
	if want := (SearchTuning{RecallTarget: 0.95, LatencyBudget: 2500 * time.Microsecond, Degrade: DegradeStop}); kn.Tuning != want {
		t.Errorf("tuning = %+v, want %+v", kn.Tuning, want)
	}

	// Omitted knobs inherit the configured defaults (including the server
	// tuning).
	rec = postJSON(t, h, "/v1/search", searchRequestV1{Query: []float32{1, 2}})
	if rec.Code != 200 {
		t.Fatalf("/v1/search returned %d: %s", rec.Code, rec.Body)
	}
	kn = eng.last(t).each[0]
	if kn.Budget != 300 || kn.MultiProbe != 2 || kn.Tuning.RecallTarget != 0.8 {
		t.Errorf("default knobs = budget %d multiProbe %d target %g", kn.Budget, kn.MultiProbe, kn.Tuning.RecallTarget)
	}

	// A client still sending the retired "fanout" field keeps working: the
	// decoder ignores fields the request no longer has.
	rec = postJSON(t, h, "/v1/search", map[string]any{"query": []float32{1, 2}, "fanout": 32})
	if rec.Code != 200 {
		t.Errorf("/v1/search with a retired field returned %d: %s", rec.Code, rec.Body)
	}
}

// TestSearchV1MixedKnobsShareBatch: requests that ask for different things
// are not kept apart. With the one execution slot busy, two requests with
// different budget and multi-probe queue, leave as one batch, and each still
// reaches the engine with its own knobs.
func TestSearchV1MixedKnobsShareBatch(t *testing.T) {
	capture := &captureEngine{st: Stats{Queries: 1}}
	eng := shardedStub{ // more shards than processors: one slot, no hold
		blockingEngine: blockingEngine{entered: make(chan struct{}, 4), release: make(chan struct{}), inner: capture},
		shards:         4 * runtime.GOMAXPROCS(0),
	}
	srv, err := NewServer(eng, ServerConfig{Dim: 2, K: 1, Opts: []SearchOption{WithBudget(300)}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	batches := func() uint64 { n, _ := srv.batcher.Batches(); return n }

	var wg sync.WaitGroup
	post := func(req searchRequestV1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := postJSON(t, h, "/v1/search", req); rec.Code != 200 {
				t.Errorf("/v1/search returned %d: %s", rec.Code, rec.Body)
			}
		}()
	}
	post(searchRequestV1{Query: []float32{0, 0}})
	<-eng.entered // the slot is busy from here on
	before := batches()
	mp := 3
	post(searchRequestV1{Query: []float32{1, 1}, Budget: 111})
	post(searchRequestV1{Query: []float32{2, 2}, Budget: 222, MultiProbe: &mp})
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		if n, _ := srv.batcher.Load(); n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the two requests never queued behind the busy slot")
		}
	}
	close(eng.release)
	wg.Wait()

	if got := batches() - before; got != 1 {
		t.Errorf("two queued requests with different knobs left as %d batches, want 1", got)
	}
	set := capture.last(t)
	if len(set.each) != 2 {
		t.Fatalf("the shared batch carried %d per-query knobs, want 2", len(set.each))
	}
	for _, kn := range set.each { // admission order is the goroutines' business
		switch kn.Budget {
		case 111:
			if kn.MultiProbe != 0 {
				t.Errorf("budget-111 request ran with multi-probe %d, want the server's 0", kn.MultiProbe)
			}
		case 222:
			if kn.MultiProbe != 3 {
				t.Errorf("budget-222 request ran with multi-probe %d, want its own 3", kn.MultiProbe)
			}
		default:
			t.Errorf("a query reached the engine with budget %d, want 111 or 222", kn.Budget)
		}
	}
	if set.each[0].Budget == set.each[1].Budget {
		t.Errorf("both queries carry budget %d: one request's knobs overwrote the other's", set.each[0].Budget)
	}
}

// TestSearchV1Validation: malformed and hostile knobs are rejected with 400
// before admission — no engine work, no breaker outcome — and the server
// answers the next well-formed request.
func TestSearchV1Validation(t *testing.T) {
	eng := &captureEngine{st: Stats{Queries: 1}}
	srv, err := NewServer(eng, ServerConfig{Dim: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	for name, body := range map[string]string{
		"wrong dim":           `{"query":[1]}`,
		"target too high":     `{"query":[1,2],"recall_target":1}`,
		"negative target":     `{"query":[1,2],"recall_target":-0.5}`,
		"negative budget":     `{"query":[1,2],"budget":-5}`,
		"negative ms":         `{"query":[1,2],"latency_budget_ms":-1}`,
		"bad degrade":         `{"query":[1,2],"degrade":"maybe"}`,
		"negative multiprobe": `{"query":[1,2],"multiprobe":-1}`,
		// Sized a searcher's probe arenas: the first panicked growslice on a
		// pool goroutine, the second pinned ≈ 0.9 GB in a pooled searcher.
		"multiprobe past any slice":  `{"query":[1,2],"multiprobe":4000000000000000000}`,
		"multiprobe past the bound":  `{"query":[1,2],"multiprobe":300000}`,
		"multiprobe just past bound": `{"query":[1,2],"multiprobe":1025}`,
		// Wrapped time.Duration negative; the engine's refusal was a 500 and
		// a breaker failure.
		"ms past a duration":  `{"query":[1,2],"latency_budget_ms":1e16}`,
		"-ms past a duration": `{"query":[1,2],"latency_budget_ms":-1e300}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", strings.NewReader(body)))
		if rec.Code != 400 {
			t.Errorf("%s: got %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}
	eng.mu.Lock()
	reached := len(eng.sets)
	eng.mu.Unlock()
	if reached != 0 {
		t.Errorf("invalid requests reached the engine %d times", reached)
	}
	if _, n, open := srv.breakerState(); n != 0 || open {
		t.Errorf("rejected requests left %d breaker outcomes (open=%v), want none", n, open)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", strings.NewReader(`{"query":[1,2],"multiprobe":1024}`)))
	if rec.Code != 200 {
		t.Errorf("a well-formed request after the rejected ones returned %d: %s", rec.Code, rec.Body)
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
// queue deterministically; entered signals each batch's start. A released
// batch is answered by inner when there is one.
type blockingEngine struct {
	entered, release chan struct{}
	inner            Engine
}

func (e blockingEngine) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	res, _, err := e.BatchSearch(ctx, [][]float32{q}, opts...)
	return res[0], Stats{Queries: 1}, err
}

func (e blockingEngine) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	e.entered <- struct{}{}
	<-e.release
	if e.inner != nil {
		return e.inner.BatchSearch(ctx, queries, opts...)
	}
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
// never holds; an unsharded one gets a slot per processor and holds only
// when MaxDelay asks for it.
func TestServerAdmission(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name     string
		eng      Engine
		maxDelay time.Duration
		slots    int
		hold     time.Duration
	}{
		{"unsharded, default no hold", blockingEngine{}, 0, procs, 0},
		{"unsharded, given hold", blockingEngine{}, time.Millisecond, procs, time.Millisecond},
		{"unsharded, negative is no hold", blockingEngine{}, -1, procs, 0},
		{"one shard is unsharded", shardedStub{shards: 1}, 0, procs, 0},
		{"one shard, given hold", shardedStub{shards: 1}, time.Millisecond, procs, time.Millisecond},
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
	// Hash partitions are one engine: a lone query runs on one goroutine, so
	// a partitioned index gets a slot per processor, like any other.
	d := shardsDataset(t)
	part, err := NewStorageIndex(d.Vectors, Config{}, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if slots, hold := admission(part, 0); slots != procs || hold != 0 {
		t.Errorf("4 hash partitions on %d processors: %d slots, hold %v; want %d, no hold", procs, slots, hold, procs)
	}
}

// TestLoneQueryNotHeld: on an idle unsharded server a lone /v1/search is cut
// into a batch the moment it is admitted, so its coalescer wait is the
// queue's own bookkeeping, not a hold for company that never comes.
func TestLoneQueryNotHeld(t *testing.T) {
	srv, err := NewServer(&captureEngine{}, ServerConfig{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	const n = 50
	for range n {
		if rec := postJSON(t, h, "/v1/search", searchRequestV1{Query: []float32{1, 2}}); rec.Code != http.StatusOK {
			t.Fatalf("/v1/search: %d %s", rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var sum float64
	var count int
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "lsh_coalesce_wait_seconds_sum "); ok {
			fmt.Sscan(v, &sum)
		}
		if v, ok := strings.CutPrefix(line, "lsh_coalesce_wait_seconds_count "); ok {
			fmt.Sscan(v, &count)
		}
	}
	if count != n {
		t.Fatalf("lsh_coalesce_wait_seconds_count = %d, want %d", count, n)
	}
	if mean := time.Duration(sum / n * float64(time.Second)); mean >= 100*time.Microsecond {
		t.Errorf("mean coalescer wait of a lone query = %v, want under 100µs (no hold)", mean)
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
