package e2lshos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// telemetryDataset is small enough to build per test but clustered enough
// that every query walks several radius rounds.
func telemetryDataset(t testing.TB) *Dataset {
	t.Helper()
	d, err := GenerateDataset(DatasetSpec{
		Name: "telemetry", N: 2000, Queries: 20, Dim: 16,
		Clusters: 5, Spread: 0.05, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// reportByStage indexes a TelemetryReport by stage name.
func reportByStage(rows []LatencySummary) map[string]LatencySummary {
	m := make(map[string]LatencySummary, len(rows))
	for _, r := range rows {
		m[r.Stage] = r
	}
	return m
}

// TestTelemetryDisabledIsInert: without EnableTelemetry, searches run and
// the telemetry surface reports nothing.
func TestTelemetryDisabledIsInert(t *testing.T) {
	d := telemetryDataset(t)
	ix, err := NewInMemoryIndex(d.Vectors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(context.Background(), d.Queries[0], WithK(3)); err != nil {
		t.Fatal(err)
	}
	if rep := ix.TelemetryReport(); rep != nil {
		t.Fatalf("disabled TelemetryReport = %+v, want nil", rep)
	}
}

// TestTelemetryInvalidOptions: out-of-range settings are rejected.
func TestTelemetryInvalidOptions(t *testing.T) {
	d := telemetryDataset(t)
	ix, err := NewInMemoryIndex(d.Vectors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableTelemetry(WithTracing(1.5)); err == nil {
		t.Error("sample rate 1.5 accepted")
	}
	if err := ix.EnableTelemetry(WithTracing(-0.1)); err == nil {
		t.Error("negative sample rate accepted")
	}
	if err := ix.EnableTelemetry(WithSlowQueryLog(-time.Second)); err == nil {
		t.Error("negative slow threshold accepted")
	}
}

// TestTelemetryStorageStagesAndSlowLog traces every query on the storage
// engine (cache + vectored I/O engine attached) and checks the two tentpole
// surfaces: the per-stage report covers the whole radius-round pipeline with
// a sane accounting (stage time bounded by total time), and the slow-query
// log names the per-stage durations of a full span trace.
func TestTelemetryStorageStagesAndSlowLog(t *testing.T) {
	d := telemetryDataset(t)
	ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 8},
		WithBlockCache(32<<20), WithIOEngine(8))
	if err != nil {
		t.Fatal(err)
	}
	var slow bytes.Buffer
	if err := ix.EnableTelemetry(
		WithTracing(1),
		WithSlowQueryLog(time.Nanosecond), // every sampled query dumps
		slowQueryWriter(&slow),
	); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := ix.BatchSearch(ctx, d.Queries, WithK(5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(ctx, d.Queries[0], WithK(5)); err != nil {
		t.Fatal(err)
	}

	rows := reportByStage(ix.TelemetryReport())
	total, ok := rows["total"]
	if !ok {
		t.Fatalf("report has no total stage: %+v", rows)
	}
	wantQueries := uint64(d.NQ() + 1)
	if total.Count != wantQueries {
		t.Errorf("total count = %d, want %d", total.Count, wantQueries)
	}
	if total.P50 <= 0 || total.P99 < total.P50 || total.Max < total.P99 {
		t.Errorf("total quantiles not ordered: %+v", total)
	}
	for _, stage := range []string{"project", "io", "verify", "round"} {
		r, ok := rows[stage]
		if !ok {
			t.Errorf("report missing %s stage (rows: %v)", stage, rows)
			continue
		}
		if r.Count == 0 {
			t.Errorf("%s stage has zero samples", stage)
		}
	}
	if r, ok := rows["io_op"]; !ok || r.Count == 0 {
		t.Errorf("io_op stage empty despite attached I/O engine: %+v", rows["io_op"])
	}

	dump := slow.String()
	if !strings.Contains(dump, "slow query: total=") {
		t.Fatalf("slow log has no dump:\n%s", dump)
	}
	for _, stage := range []string{"project", "io", "verify", "round"} {
		if !strings.Contains(dump, stage) {
			t.Errorf("slow trace does not name the %s stage:\n%s", stage, dump)
		}
	}
	if !strings.Contains(dump, "r0") || !strings.Contains(dump, "dur=") {
		t.Errorf("slow trace missing per-round durations:\n%s", dump)
	}
}

// TestTelemetryShardedFold: the router's collector times end-to-end queries
// and shard scatter waits, and the shards' per-stage detail folds into one
// report — without shard end-to-end totals double-counting logical queries.
func TestTelemetryShardedFold(t *testing.T) {
	d := telemetryDataset(t)
	ix, err := NewShardedIndex(d.Vectors, 2, PlaceHash,
		InMemoryShardBuilder(ShardConfig(Config{}, d.Vectors, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableTelemetry(WithTracing(1)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := ix.BatchSearch(ctx, d.Queries, WithK(3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(ctx, d.Queries[0], WithK(3)); err != nil {
		t.Fatal(err)
	}

	rows := reportByStage(ix.TelemetryReport())
	wantLogical := uint64(d.NQ() + 1)
	if total := rows["total"]; total.Count != wantLogical {
		t.Errorf("folded total count = %d, want %d logical queries (shard totals must not double-count)",
			total.Count, wantLogical)
	}
	if sw := rows["shard_wait"]; sw.Count == 0 {
		t.Error("router observer recorded no shard_wait samples")
	}
	if pr := rows["project"]; pr.Count == 0 {
		t.Error("per-shard project detail did not fold into the sharded report")
	}
}

// TestServerSlowQueryTraceNamesStages drives real HTTP traffic through the
// coalescer into a traced storage engine and requires the slow-query log to
// name every per-stage duration the issue promises: projection, verify,
// per-round I/O, and the coalescer wait stamped from the batch context.
func TestServerSlowQueryTraceNamesStages(t *testing.T) {
	d := telemetryDataset(t)
	ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 8}, WithBlockCache(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var slow bytes.Buffer
	lockedSlow := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return slow.Write(p)
	})
	if err := ix.EnableTelemetry(
		WithTracing(1), WithSlowQueryLog(time.Nanosecond), slowQueryWriter(lockedSlow),
	); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ix, ServerConfig{Dim: d.Dim, K: 3, MaxBatch: 8, MaxQueue: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for qi := range d.Queries {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"query": d.Queries[qi]})
			resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}(qi)
	}
	wg.Wait()

	mu.Lock()
	dump := slow.String()
	mu.Unlock()
	for _, stage := range []string{"project", "verify", "io", "coalesce_wait"} {
		if !strings.Contains(dump, stage) {
			t.Errorf("served slow trace does not name the %s stage:\n%s", stage, dump)
		}
	}
}

// slowQueryWriter sends the slow-query log to w instead of stderr.
func slowQueryWriter(w io.Writer) TelemetryOption {
	return func(s *telemetrySettings) { s.slowW = w }
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestMetricsScrapeVsSearchRace hammers /v1/search and /metrics concurrently:
// the scrape path (histogram snapshots, stats folding) must be safe against
// live observation. Run under -race, this is the data-race gate for the
// whole telemetry read side.
func TestMetricsScrapeVsSearchRace(t *testing.T) {
	d := telemetryDataset(t)
	ix, err := NewInMemoryIndex(d.Vectors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableTelemetry(WithTracing(1)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ix, ServerConfig{Dim: d.Dim, K: 3, MaxBatch: 8, MaxQueue: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				body, _ := json.Marshal(map[string]any{"query": d.Queries[(w*8+i)%d.NQ()]})
				resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("search status %d", resp.StatusCode)
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("metrics status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the dust settles the scrape must carry the engine's stage
	// summaries alongside the serving histograms.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page bytes.Buffer
	if _, err := page.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lsh_query_latency_seconds{stage="total",quantile="0.99"}`,
		`lsh_query_latency_seconds{stage="project",quantile="0.5"}`,
		"# TYPE lsh_query_latency_hist_seconds histogram",
		"lsh_traced_queries_total",
		"lsh_http_request_seconds",
	} {
		if !strings.Contains(page.String(), want) {
			t.Errorf("/metrics missing %q after traced traffic:\n%s", want, page.String())
		}
	}
}

// TestPprofGatedByConfig: the profiling endpoints exist only when
// ServerConfig.Pprof is set.
func TestPprofGatedByConfig(t *testing.T) {
	d := telemetryDataset(t)
	ix, err := NewInMemoryIndex(d.Vectors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		srv, err := NewServer(ix, ServerConfig{Dim: d.Dim, K: 1, Pprof: on})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
		srv.Close()
		if on && rec.Code != http.StatusOK {
			t.Errorf("pprof on: /debug/pprof/cmdline returned %d", rec.Code)
		}
		if !on && rec.Code != http.StatusNotFound {
			t.Errorf("pprof off: /debug/pprof/cmdline returned %d, want 404", rec.Code)
		}
	}
}
