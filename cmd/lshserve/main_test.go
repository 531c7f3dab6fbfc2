package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"e2lshos"
)

// serveDataset is small enough to build in a test but clustered enough that
// every query finds neighbors.
func serveDataset(t *testing.T) *e2lshos.Dataset {
	t.Helper()
	d, err := e2lshos.GenerateDataset(e2lshos.DatasetSpec{
		Name: "serve", N: 3000, Queries: 30, Dim: 16,
		Clusters: 6, Spread: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestServeConcurrentTraffic drives concurrent /v1/search requests through the
// coalescer against an httptest server over a sharded index, and checks
// every caller gets its own query's answer plus live /stats and /healthz.
func TestServeConcurrentTraffic(t *testing.T) {
	d := serveDataset(t)
	const k = 3
	ix, err := e2lshos.NewShardedIndex(d.Vectors, 3, e2lshos.PlaceHash,
		e2lshos.StorageShardBuilder(e2lshos.ShardConfig(e2lshos.Config{Sigma: 32}, d.Vectors, 3)))
	if err != nil {
		t.Fatal(err)
	}
	// Telemetry on, as lshserve's -metrics default enables it, so the
	// /metrics scrape below sees the per-stage engine summaries too.
	if err := ix.EnableTelemetry(e2lshos.WithTracing(0.5)); err != nil {
		t.Fatal(err)
	}
	srv, err := e2lshos.NewServer(ix, e2lshos.ServerConfig{
		Dim: d.Dim, K: k, MaxBatch: 8, MaxQueue: 1 << 20,
		Exact: e2lshos.GroundTruth(d, k),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Each query's exact answer, to verify callers get their own result.
	want, _, err := ix.BatchSearch(context.Background(), d.Queries, e2lshos.WithK(k))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4*d.NQ())
	for round := 0; round < 4; round++ {
		for qi := range d.Queries {
			wg.Add(1)
			go func(qi int) {
				defer wg.Done()
				body, _ := json.Marshal(map[string]any{"query": d.Queries[qi], "qid": qi})
				resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query %d: status %d", qi, resp.StatusCode)
					return
				}
				var out struct {
					Neighbors []struct {
						ID   uint32  `json:"id"`
						Dist float64 `json:"dist"`
					} `json:"neighbors"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					errs <- err
					return
				}
				if len(out.Neighbors) == 0 {
					errs <- fmt.Errorf("query %d: no neighbors", qi)
					return
				}
				if out.Neighbors[0].ID != want[qi].Neighbors[0].ID {
					errs <- fmt.Errorf("query %d: got top-1 %d, want %d — not my query's answer",
						qi, out.Neighbors[0].ID, want[qi].Neighbors[0].ID)
				}
			}(qi)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Queries    int     `json:"queries"`
		NIO        int     `json:"n_io"`
		Served     uint64  `json:"served"`
		Batches    uint64  `json:"coalesce_batches"`
		Scored     int     `json:"scored"`
		MeanRecall float64 `json:"mean_recall"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 4*d.NQ() || st.Served != uint64(4*d.NQ()) {
		t.Errorf("stats report %d queries / %d served, want %d", st.Queries, st.Served, 4*d.NQ())
	}
	if st.NIO == 0 {
		t.Error("storage shards served traffic but /stats reports zero N_IO")
	}
	if st.Batches == 0 || st.Batches > st.Served {
		t.Errorf("/stats reports %d coalesced batches for %d served queries", st.Batches, st.Served)
	}
	if st.Scored != 4*d.NQ() || st.MeanRecall <= 0 {
		t.Errorf("shadow scoring: scored %d (want %d), mean recall %v", st.Scored, 4*d.NQ(), st.MeanRecall)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz returned %d", hz.StatusCode)
	}

	scrapeMetrics(t, ts.URL)
}

// statsPromNames lists the /metrics exposition name of every exported
// e2lshos.Stats counter plus the derived N_IO. The reflection guard in
// scrapeMetrics pins the list's length to the Stats field count, so adding a
// counter without registering its metric name fails here.
var statsPromNames = []string{
	"lsh_stats_queries_total",
	"lsh_stats_radii_total",
	"lsh_stats_probes_total",
	"lsh_stats_non_empty_probes_total",
	"lsh_stats_entries_scanned_total",
	"lsh_stats_checked_total",
	"lsh_stats_duplicates_total",
	"lsh_stats_fp_rejected_total",
	"lsh_stats_table_ios_total",
	"lsh_stats_bucket_ios_total",
	"lsh_stats_n_io_total",
	"lsh_stats_cache_hits_total",
	"lsh_stats_cache_misses_total",
	"lsh_stats_prefetched_blocks_total",
	"lsh_stats_coalesced_reads_total",
	"lsh_stats_deduped_reads_total",
	"lsh_stats_physical_reads_total",
	"lsh_stats_faulted_reads_total",
	"lsh_stats_skipped_chains_total",
	"lsh_stats_partial_queries_total",
	"lsh_stats_ios_at_inf_total",
	"lsh_stats_rounds_skipped_total",
	"lsh_stats_budget_exhausted_total",
	"lsh_stats_degraded_knobs_total",
	"lsh_stats_recall_stopped_total",
}

// scrapeMetrics asserts the /metrics page carries every Stats counter by
// name, the serving counters, the live-heap gauge, the latency summaries
// with their p50/p99/p999 quantiles, and any extra names the engine under
// test must add — the CI-side contract of the telemetry subsystem.
func scrapeMetrics(t *testing.T, base string, extra ...string) {
	t.Helper()
	if want := reflect.TypeOf(e2lshos.Stats{}).NumField() + 1; len(statsPromNames) != want {
		t.Fatalf("statsPromNames has %d entries for %d Stats fields (+ n_io); register the new counter's metric name",
			len(statsPromNames), want)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want Prometheus text exposition", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, name := range statsPromNames {
		if !strings.Contains(page, "\n"+name+" ") {
			t.Errorf("/metrics missing Stats counter %s", name)
		}
	}
	for _, want := range append([]string{
		"lsh_served_total", "lsh_failed_total", "lsh_canceled_total",
		"lsh_shed_total", "lsh_uptime_seconds",
		"lsh_go_heap_live_bytes", "lsh_go_gc_cpu_seconds_total", "lsh_go_cpu_seconds_total",
		`lsh_http_request_seconds{quantile="0.5"}`,
		`lsh_http_request_seconds{quantile="0.99"}`,
		`lsh_http_request_seconds{quantile="0.999"}`,
		"lsh_coalesce_wait_seconds",
		"lsh_coalesce_batch_size_sum", "lsh_coalesce_batch_size_count",
		"lsh_coalesce_executing",
		// The sharded engine is telemetry-enabled by lshserve's -metrics
		// default, so the per-stage engine summary must be present too.
		`lsh_query_latency_seconds{stage="total"`,
	}, extra...) {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeBadRequests: malformed bodies and wrong dimensionality are 400s,
// not engine errors.
func TestServeBadRequests(t *testing.T) {
	d := serveDataset(t)
	ix, err := e2lshos.NewShardedIndex(d.Vectors, 2, e2lshos.PlaceRange,
		e2lshos.InMemoryShardBuilder(e2lshos.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := e2lshos.NewServer(ix, e2lshos.ServerConfig{Dim: d.Dim, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"not json", "{", http.StatusBadRequest},
		{"wrong dim", `{"query":[1,2,3]}`, http.StatusBadRequest},
		{"k too large", fmt.Sprintf(`{"query":%s,"k":99}`, floats(d.Dim)), http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/search"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/search: status %d, want 405", resp.StatusCode)
		}
	}
}

// TestRunWALRestart boots run() in -wal mode, inserts a vector over HTTP,
// shuts down, then reboots against the same directory and requires the
// recovery banner plus the insert to still be searchable — the operator-level
// crash-safety contract end to end.
func TestRunWALRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-n", "2000", "-queries", "10",
		"-k", "2", "-wal", dir, "-fsync-every", "2",
	}
	boot := func() (net.Addr, context.CancelFunc, chan error, *bytes.Buffer) {
		ctx, cancel := context.WithCancel(context.Background())
		addrc := make(chan net.Addr, 1)
		var out bytes.Buffer
		done := make(chan error, 1)
		go func() { done <- run(ctx, args, &out, func(a net.Addr) { addrc <- a }) }()
		select {
		case a := <-addrc:
			return a, cancel, done, &out
		case err := <-done:
			t.Fatalf("run exited before serving: %v\noutput:\n%s", err, out.String())
		case <-time.After(2 * time.Minute):
			t.Fatal("server never came up")
		}
		panic("unreachable")
	}
	shutdown := func(cancel context.CancelFunc, done chan error, out *bytes.Buffer) {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown returned %v\noutput:\n%s", err, out.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatal("server did not shut down")
		}
	}

	vec := make([]float32, 128)
	for i := range vec {
		vec[i] = float32(i) * 0.25
	}
	addr, cancel, done, out := boot()
	base := "http://" + addr.String()
	body, _ := json.Marshal(map[string]any{"vector": vec})
	resp, err := http.Post(base+"/v1/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ins struct {
		ID uint32 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ins); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/insert returned %d", resp.StatusCode)
	}
	shutdown(cancel, done, out)
	if !strings.Contains(out.String(), "logging to "+dir) {
		t.Errorf("fresh WAL build not logged:\n%s", out.String())
	}

	addr, cancel, done, out = boot()
	defer shutdown(cancel, done, out)
	if !strings.Contains(out.String(), "recovered WAL generation 1") {
		t.Fatalf("recovery not logged:\n%s", out.String())
	}
	sbody, _ := json.Marshal(map[string]any{"query": vec, "k": 1})
	sresp, err := http.Post("http://"+addr.String()+"/v1/search", "application/json", bytes.NewReader(sbody))
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Neighbors []struct {
			ID   uint32  `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"neighbors"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if len(sr.Neighbors) == 0 || sr.Neighbors[0].ID != ins.ID || sr.Neighbors[0].Dist != 0 {
		t.Fatalf("acked insert %d not searchable after restart: %+v", ins.ID, sr.Neighbors)
	}
}

func floats(dim int) string {
	parts := make([]string, dim)
	for i := range parts {
		parts[i] = "0.5"
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// TestRunGCTarget: once built, lshserve serves at servingGCPercent unless
// GOGC is set, when the operator's value stands, and run restores the
// previous target when it returns.
func TestRunGCTarget(t *testing.T) {
	gcPercent := func() int {
		p := debug.SetGCPercent(100)
		debug.SetGCPercent(p)
		return p
	}
	for _, tc := range []struct {
		gogc string // "" leaves GOGC unset
		want int
	}{{"", servingGCPercent}, {"100", 100}} {
		t.Setenv("GOGC", tc.gogc)
		if tc.gogc == "" {
			os.Unsetenv("GOGC") // t.Setenv restores the original afterwards
		}
		prev := debug.SetGCPercent(100)
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan int, 1)
		var out bytes.Buffer
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-n", "2000", "-queries", "10", "-k", "2"}, &out,
			func(net.Addr) { served <- gcPercent(); cancel() })
		cancel()
		if err != nil {
			t.Fatalf("GOGC=%q: %v\noutput:\n%s", tc.gogc, err, out.String())
		}
		if got := <-served; got != tc.want {
			t.Errorf("GOGC=%q: served at GC percent %d, want %d", tc.gogc, got, tc.want)
		}
		if got := gcPercent(); got != 100 {
			t.Errorf("GOGC=%q: GC percent %d after run returned, want 100 back", tc.gogc, got)
		}
		debug.SetGCPercent(prev)
	}
}

// TestRunGracefulShutdown boots the real lshserve run loop on an ephemeral
// port, serves one request, then cancels the context (what SIGINT does via
// signal.NotifyContext) and requires a clean, prompt exit.
func TestRunGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan net.Addr, 1)
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-n", "2000", "-queries", "10",
			"-shards", "2", "-k", "2",
			"-cache", "8", "-iodepth", "16",
			"-recall-target", "0.9",
		}, &out, func(a net.Addr) { addrc <- a })
	}()

	var addr net.Addr
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("run exited before serving: %v\noutput:\n%s", err, out.String())
	case <-time.After(2 * time.Minute):
		t.Fatal("server never came up")
	}

	base := "http://" + addr.String()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	q := make([]float32, 128)
	body, _ := json.Marshal(map[string]any{"query": q})
	sresp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/search returned %d", sresp.StatusCode)
	}
	// The SLO flags above wire EnableAutotune plus the server-default recall
	// target through run(); a per-request /v1/search override must answer
	// with the versioned envelope.
	v1body, _ := json.Marshal(map[string]any{"query": q, "k": 2, "recall_target": 0.5})
	vresp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(v1body))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Neighbors  []any          `json:"neighbors"`
		K          int            `json:"k"`
		Controller map[string]any `json:"controller"`
	}
	if err := json.NewDecoder(vresp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK || env.K != 2 || env.Controller == nil {
		t.Fatalf("/v1/search status %d, envelope %+v", vresp.StatusCode, env)
	}
	if !strings.Contains(out.String(), "autotune on") {
		t.Errorf("autotune wiring not logged:\n%s", out.String())
	}
	// Before listening, the heap an operator reads RSS against: the live Go
	// heap after the post-build collection and the store held outside it.
	if !regexp.MustCompile(`live Go heap [0-9.]+ MB; index store [0-9.]+ MB held outside it\n`).MatchString(out.String()) {
		t.Errorf("start-up memory line missing:\n%s", out.String())
	}
	// The run() flag defaults (-metrics on) must yield a complete scrape on
	// the real serving loop, exactly as CI asserts on the httptest server,
	// and lshserve's one storage index reports its store's size, under
	// -cache the bytes its block cache holds, and under -iodepth whether its
	// engine's backend blocks.
	scrapeMetrics(t, base, "lsh_index_store_bytes", "lsh_blockcache_resident_bytes", "lsh_io_blocking")

	cancel() // stand-in for SIGINT: main wires the same ctx through signal.NotifyContext
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down after cancellation")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("shutdown not logged:\n%s", out.String())
	}
}

// TestRunStorageFlagCoupling: lshserve keeps no copy of the facade's rules
// for how storage flags combine. -retries alone boots (the retry layer's
// I/O engine comes with it), and -readahead without -cache fails with the
// facade's own error.
func TestRunStorageFlagCoupling(t *testing.T) {
	small := []string{"-addr", "127.0.0.1:0", "-n", "600", "-queries", "5", "-shards", "1", "-k", "2"}

	err := run(context.Background(), append(small, "-readahead", "2"), io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "WithReadahead requires WithBlockCache") {
		t.Errorf("-readahead without -cache: err = %v, want the facade's WithBlockCache error", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	if err := run(ctx, append(small, "-retries", "2"), &out, func(net.Addr) { cancel() }); err != nil {
		t.Errorf("-retries without -iodepth: %v\noutput:\n%s", err, out.String())
	}
}

// TestRunCoalescerFlags: no engine waits on a timer, so there is no hold to
// tune, a shard sub-query runs once, and batch size and queue depth stay what
// the flags set them to — so -maxdelay, -hedge and -target-p99 are gone:
// unknown flags, not silently ignored ones. So are
// -engine, -checksum and -placement: every shard is a checksummed storage
// shard under hash placement. The flag set holds 23. -maxbatch and -maxqueue
// still parse and boot.
func TestRunCoalescerFlags(t *testing.T) {
	small := []string{"-addr", "127.0.0.1:0", "-n", "600", "-queries", "5", "-shards", "1", "-k", "2"}

	for _, gone := range [][]string{
		{"-maxdelay", "1ms"}, {"-hedge"}, {"-target-p99", "100ms"},
		{"-engine", "mem"}, {"-checksum=false"}, {"-placement", "range"},
	} {
		name, _, _ := strings.Cut(gone[0], "=")
		err := run(context.Background(), append(small, gone...), io.Discard, nil)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+name) {
			t.Errorf("%s: err = %v, want an unknown-flag error", name, err)
		}
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(regexp.MustCompile(`= fs\.\w+\("`).FindAll(src, -1)); n != 23 {
		t.Errorf("main.go defines %d flags, want 23", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	if err := run(ctx, append(small, "-maxbatch", "4", "-maxqueue", "64"), &out, func(net.Addr) { cancel() }); err != nil {
		t.Errorf("-maxbatch/-maxqueue: %v\noutput:\n%s", err, out.String())
	}
}

// TestRunRejectsBadCounts: -k, -shards and -fsync-every below 1 are refused before the
// dataset is generated, rather than -k 0 panicking in the ground-truth
// workers after a full build and -fsync-every 0 being run as 1. Should a bad
// value get through, the ready callback stops the server it booted.
func TestRunRejectsBadCounts(t *testing.T) {
	small := []string{"-addr", "127.0.0.1:0", "-n", "600", "-queries", "5", "-shards", "1"}
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-k", "0"}, "-k must be at least 1, got 0"},
		{[]string{"-k", "-2"}, "-k must be at least 1, got -2"},
		{[]string{"-shards", "0"}, "-shards must be at least 1, got 0"},
		{[]string{"-wal", dir, "-fsync-every", "0"}, "-fsync-every must be at least 1, got 0"},
		{[]string{"-wal", dir, "-fsync-every", "-3"}, "-fsync-every must be at least 1, got -3"},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var out bytes.Buffer
		err := run(ctx, append(small, tc.args...), &out, func(net.Addr) { cancel() })
		cancel()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
		if strings.Contains(out.String(), "generating") {
			t.Errorf("%v: rejected only after generating the dataset:\n%s", tc.args, out.String())
		}
	}
}
