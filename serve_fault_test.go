package e2lshos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/faultinject"
	"e2lshos/internal/ladder"
)

// panicEngine panics on every batch, like an engine tripping on a poisoned
// query.
type panicEngine struct{}

func (panicEngine) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	panic("poisoned query")
}

func (panicEngine) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	panic("poisoned query")
}

// TestBatchPanicBecomes500: a panicking engine fails its callers with a 500
// carrying the recovered panic, the process survives, and the panic is
// counted on /stats and /metrics.
func TestBatchPanicBecomes500(t *testing.T) {
	srv, err := NewServer(panicEngine{}, ServerConfig{Dim: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	rec := postJSON(t, h, "/v1/search", searchRequestV1{Query: []float32{1, 2}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking engine returned %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "panicked") {
		t.Errorf("500 body does not name the panic: %s", rec.Body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Panics == 0 {
		t.Error("/stats panics counter stayed zero after a recovered panic")
	}
	if st.Failed == 0 {
		t.Error("recovered panic not counted as a failed request")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "\nlsh_panics_total 1\n") {
		t.Errorf("/metrics missing lsh_panics_total 1:\n%s", rec.Body)
	}
}

// poolPanicEngine is an engine on the shared Search / BatchSearch machinery
// whose querier panics while armed: the panic happens on a BatchSearch pool
// goroutine, where the coalescer's own recover cannot reach.
type poolPanicEngine struct {
	telem
	tune
	searchers
	armed atomic.Bool
}

func (e *poolPanicEngine) newQuerier() querier { return poolPanicQuerier{e} }

func (e *poolPanicEngine) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	return engineSearch(ctx, e, q, opts)
}

func (e *poolPanicEngine) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	return engineBatchSearch(ctx, e, queries, opts)
}

type poolPanicQuerier struct{ e *poolPanicEngine }

func (p poolPanicQuerier) Run(ctx context.Context, q []float32, kn ladder.Knobs, dst []ann.Neighbor) (Result, Stats, error) {
	if p.e.armed.Load() {
		panic("growslice: len out of range")
	}
	return Result{}, Stats{Queries: 1}, nil
}

// TestPoolWorkerPanicBecomes500: a panic inside a searcher, on a pool
// goroutine — behind a shard scatter's goroutines or not — fails the batch
// with a 500 wrapping the panic, is counted once, and leaves the server
// answering.
func TestPoolWorkerPanicBecomes500(t *testing.T) {
	for _, shards := range []int{0, 2} {
		eng := new(poolPanicEngine)
		var front Engine = eng
		if shards > 0 {
			var err error
			front, err = NewShardedIndex(make([][]float32, shards), shards, PlaceRange,
				func(int, [][]float32) (Engine, error) { return eng, nil })
			if err != nil {
				t.Fatal(err)
			}
		}
		srv, err := NewServer(front, ServerConfig{Dim: 2, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()

		eng.armed.Store(true)
		rec := postJSON(t, h, "/v1/search", searchRequestV1{Query: []float32{1, 2}})
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "growslice") {
			t.Errorf("%d shards: a panicking pool worker answered %d %q, want 500 naming the panic", shards, rec.Code, rec.Body)
		}
		eng.armed.Store(false)
		if rec := postJSON(t, h, "/v1/search", searchRequestV1{Query: []float32{1, 2}}); rec.Code != 200 {
			t.Errorf("%d shards: the request after the panic answered %d: %s", shards, rec.Code, rec.Body)
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
		var st statsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Panics != 1 || st.Failed != 1 || st.Served != 1 {
			t.Errorf("%d shards: /stats panics %d, failed %d, served %d; want 1, 1, 1", shards, st.Panics, st.Failed, st.Served)
		}
		srv.Close()
	}
}

// failingEngine fails every batch with a storage-ish error.
type failingEngine struct{ err error }

func (e failingEngine) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	return Result{}, Stats{}, e.err
}

func (e failingEngine) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	return nil, Stats{}, e.err
}

// probeEngine is healthy for queries but owns a storage probe with a settable
// verdict.
type probeEngine struct{ probeErr error }

func (probeEngine) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	return Result{}, Stats{Queries: 1}, nil
}

func (probeEngine) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	return make([]Result, len(queries)), Stats{Queries: len(queries)}, nil
}

func (e probeEngine) ProbeStorage() error { return e.probeErr }

// TestReadyzBreakerTrips: /readyz answers 200 on a healthy replica, trips to
// 503 with a parseable Retry-After once the windowed failure rate crosses
// the threshold, and /healthz keeps reporting liveness throughout.
func TestReadyzBreakerTrips(t *testing.T) {
	srv, err := NewServer(failingEngine{err: errors.New("disk on fire")}, ServerConfig{Dim: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("fresh replica /readyz = %d, want 200", rec.Code)
	}

	for i := 0; i < breakerMinSamples; i++ {
		if rec := postJSON(t, h, "/v1/search", searchRequestV1{Query: []float32{1, 2}}); rec.Code != 500 {
			t.Fatalf("failing engine returned %d, want 500", rec.Code)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after %d failures = %d, want 503: %s", breakerMinSamples, rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "circuit breaker open") {
		t.Errorf("breaker 503 does not name the breaker: %s", rec.Body)
	}
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("breaker 503 Retry-After = %q, want an integer ≥ 1", ra)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("/healthz = %d under an open breaker, want 200 (liveness is not readiness)", rec.Code)
	}
}

// TestReadyzStorageProbe: a failing engine probe flips /readyz to 503 and
// the reason surfaces; a healthy probe answers ready.
func TestReadyzStorageProbe(t *testing.T) {
	for _, tc := range []struct {
		name     string
		probeErr error
		want     int
	}{
		{"healthy", nil, 200},
		{"dead store", fmt.Errorf("probe: checksum mismatch"), http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer(probeEngine{probeErr: tc.probeErr}, ServerConfig{Dim: 2, K: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
			if rec.Code != tc.want {
				t.Fatalf("/readyz = %d, want %d: %s", rec.Code, tc.want, rec.Body)
			}
			if tc.probeErr != nil && !strings.Contains(rec.Body.String(), "checksum mismatch") {
				t.Errorf("503 body does not carry the probe error: %s", rec.Body)
			}
			if tc.probeErr != nil {
				if ra := rec.Header().Get("Retry-After"); ra == "" {
					t.Error("probe 503 without Retry-After")
				}
			}
		})
	}
}

// TestRecoveredHandlerPanic: a panic outside the batch path (in the handler
// itself) is converted to a counted 500 by the recovery middleware.
func TestRecoveredHandlerPanic(t *testing.T) {
	srv, err := NewServer(probeEngine{}, ServerConfig{Dim: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/anything", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("recovered panic returned %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "handler bug") {
		t.Errorf("500 body does not carry the panic value: %s", rec.Body)
	}
	srv.mu.Lock()
	panics := srv.panics
	srv.mu.Unlock()
	if panics != 1 {
		t.Errorf("handler panic counter = %d, want 1", panics)
	}
}

// TestMetricsExposeIORetryCounters: the I/O engine's retry and quarantine
// counters reach a running server's /metrics, with the values the engine
// reports in process. The device fails its first 64 reads and then recovers:
// the first query's early waves exhaust their blocks' retry budgets (faulted,
// quarantined blocks), later reads succeed on a retry, and asking again hits
// the quarantine.
func TestMetricsExposeIORetryCounters(t *testing.T) {
	d := chaosDataset(t)
	fb := faultinject.Wrap(blockstore.NewMemBackend(), faultinject.Schedule{Seed: 7, FailFirst: 64})
	fb.Disarm() // the build must land intact
	ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 8}, WithStorageBackend(fb), WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	fb.Arm()
	srv, err := NewServer(ix, ServerConfig{Dim: d.Dim, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for range 2 {
		if rec := postJSON(t, h, "/v1/search", searchRequestV1{Query: d.Queries[0]}); rec.Code != 200 {
			t.Fatalf("/v1/search over a recovering device returned %d: %s", rec.Code, rec.Body)
		}
	}

	c := ix.IOCounters()
	if c.RetriedReads == 0 || c.FaultedReads == 0 || c.QuarantineHits == 0 || c.Quarantined == 0 {
		t.Fatalf("fail-first schedule left no trace in the engine: %+v", c)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	page := rec.Body.String()
	for _, want := range []string{
		fmt.Sprintf("\nlsh_io_reads_total %d\n", c.Reads),
		fmt.Sprintf("\nlsh_io_retried_reads_total %d\n", c.RetriedReads),
		fmt.Sprintf("\nlsh_io_faulted_reads_total %d\n", c.FaultedReads),
		fmt.Sprintf("\nlsh_io_quarantine_hits_total %d\n", c.QuarantineHits),
		fmt.Sprintf("# TYPE lsh_io_quarantined gauge\nlsh_io_quarantined %d\n", c.Quarantined),
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q:\n%s", want, page)
		}
	}
}
