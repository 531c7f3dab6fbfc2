package e2lshos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"e2lshos/internal/telemetry"
)

// fillStats sets every int field of a Stats to a distinct nonzero value via
// reflection, so a counter dropped anywhere downstream shows up as an exact
// missing value rather than a silent zero.
func fillStats(t *testing.T) Stats {
	t.Helper()
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int {
			t.Fatalf("Stats.%s is %s; this test assumes int counters", v.Type().Field(i).Name, f.Kind())
		}
		f.SetInt(int64(i + 1))
	}
	return st
}

// TestStatsMergeEveryField is the runtime twin of the statsfold analyzer:
// merging a fully-populated Stats into a zero one must reproduce it exactly,
// and merging twice must double every field. A Merge that forgets a counter
// fails on the exact field name.
func TestStatsMergeEveryField(t *testing.T) {
	filled := fillStats(t)

	var sum Stats
	sum.Merge(filled)
	if sum != filled {
		t.Fatalf("zero.Merge(filled) = %+v, want %+v", sum, filled)
	}
	sum.Merge(filled)
	v := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		if got, want := v.Field(i).Int(), int64(2*(i+1)); got != want {
			t.Errorf("after double merge, Stats.%s = %d, want %d", v.Type().Field(i).Name, got, want)
		}
	}
}

// statsJSONKeys maps every Stats counter to the /stats key that must expose
// it. TestStatsEndpointExposesEveryCounter fails if a Stats field is missing
// here, so adding a counter forces a decision about its serving name.
var statsJSONKeys = map[string]string{
	"Queries":          "queries",
	"Radii":            "radii",
	"Probes":           "probes",
	"NonEmptyProbes":   "non_empty_probes",
	"EntriesScanned":   "entries_scanned",
	"Checked":          "checked",
	"Duplicates":       "duplicates",
	"FPRejected":       "fp_rejected",
	"TableIOs":         "table_ios",
	"BucketIOs":        "bucket_ios",
	"CacheHits":        "cache_hits",
	"CacheMisses":      "cache_misses",
	"PrefetchedBlocks": "prefetched_blocks",
	"CoalescedReads":   "coalesced_reads",
	"DedupedReads":     "deduped_reads",
	"PhysicalReads":    "physical_reads",
	"FaultedReads":     "faulted_reads",
	"SkippedChains":    "skipped_chains",
	"Partial":          "partial_queries",
	"IOsAtInf":         "ios_at_inf",
	"NodesVisited":     "nodes_visited",
	"EarlyStopped":     "early_stopped",
	"RoundsSkipped":    "rounds_skipped",
	"BudgetExhausted":  "budget_exhausted",
	"DegradedKnobs":    "degraded_knobs",
}

// statsStubEngine answers every batch with a fixed Stats, so the serving
// layer's aggregation is the only thing under test.
type statsStubEngine struct{ st Stats }

func (e statsStubEngine) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	return Result{}, e.st, nil
}

func (e statsStubEngine) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	return make([]Result, len(queries)), e.st, nil
}

// TestStatsEndpointExposesEveryCounter drives one query through the server
// and asserts /stats carries every Stats counter, by name, with the value
// the engine reported. This is the wire-level completeness check the
// statsfold analyzer performs statically on handleStats.
func TestStatsEndpointExposesEveryCounter(t *testing.T) {
	filled := fillStats(t)
	typ := reflect.TypeOf(filled)
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := statsJSONKeys[typ.Field(i).Name]; !ok {
			t.Fatalf("Stats.%s has no /stats JSON key registered in statsJSONKeys", typ.Field(i).Name)
		}
	}

	srv, err := NewServer(statsStubEngine{st: filled}, ServerConfig{Dim: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	body, _ := json.Marshal(searchRequestV1{Query: []float32{1, 2}})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", bytes.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("/v1/search returned %d: %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("/stats returned %d: %s", rec.Code, rec.Body)
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(filled)
	for i := 0; i < v.NumField(); i++ {
		name := typ.Field(i).Name
		key := statsJSONKeys[name]
		raw, ok := got[key]
		if !ok {
			t.Errorf("/stats has no %q key for Stats.%s", key, name)
			continue
		}
		if want := float64(v.Field(i).Int()); raw != want {
			t.Errorf("/stats %q = %v, want %v (Stats.%s)", key, raw, want, name)
		}
	}
	if raw, want := got["coalesce_batches"], 1.0; raw != want {
		t.Errorf("/stats coalesce_batches = %v after one query, want %v", raw, want)
	}
}

// TestMetricsEndpointExposesEveryCounter is the Prometheus twin of the /stats
// completeness check: after one query, /metrics must carry every Stats
// counter as lsh_stats_<json key>_total with the engine's exact value, the
// derived N_IO, the serving counters, and the always-on request-latency
// summary with its p50/p99/p999 quantiles — all under the exposition-format
// content type.
func TestMetricsEndpointExposesEveryCounter(t *testing.T) {
	filled := fillStats(t)
	srv, err := NewServer(statsStubEngine{st: filled}, ServerConfig{Dim: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	body, _ := json.Marshal(searchRequestV1{Query: []float32{1, 2}})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", bytes.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("/v1/search returned %d: %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics returned %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != telemetry.PromContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, telemetry.PromContentType)
	}
	page := rec.Body.String()
	v := reflect.ValueOf(filled)
	typ := v.Type()
	for i := 0; i < v.NumField(); i++ {
		name := typ.Field(i).Name
		line := fmt.Sprintf("\nlsh_stats_%s_total %d\n", statsJSONKeys[name], v.Field(i).Int())
		if !strings.Contains(page, line) {
			t.Errorf("/metrics missing %q for Stats.%s:\n%s", strings.TrimSpace(line), name, page)
		}
	}
	for _, want := range []string{
		fmt.Sprintf("\nlsh_stats_n_io_total %d\n", filled.IOs()),
		"\nlsh_served_total 1\n",
		"\nlsh_failed_total 0\n",
		"\nlsh_canceled_total 0\n",
		"\nlsh_shed_total 0\n",
		"# TYPE lsh_uptime_seconds gauge\n",
		"# TYPE lsh_http_request_seconds summary\n",
		`lsh_http_request_seconds{quantile="0.5"}`,
		`lsh_http_request_seconds{quantile="0.99"}`,
		`lsh_http_request_seconds{quantile="0.999"}`,
		"\nlsh_http_request_seconds_count 1\n",
		"# TYPE lsh_coalesce_wait_seconds summary\n",
		"\nlsh_coalesce_wait_seconds_count 1\n",
		// One query into an idle coalescer: one batch of one, nothing
		// executing once it is answered.
		"# TYPE lsh_coalesce_batch_size summary\n",
		"\nlsh_coalesce_batch_size_sum 1\n",
		"\nlsh_coalesce_batch_size_count 1\n",
		"\nlsh_coalesce_executing 0\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q:\n%s", want, page)
		}
	}
	if rec := httptest.NewRecorder(); true {
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
		if rec.Code != 405 {
			t.Errorf("POST /metrics returned %d, want 405", rec.Code)
		}
	}
}

// fillTelemetrySnapshot builds a telemetry.Snapshot with every exported
// field — including every stage histogram and the per-stage bucket arrays —
// set to a distinct nonzero value, then verifies by reflection that nothing
// stayed zero, so a field added to Snapshot or HistSnapshot without merge
// coverage fails here by name.
func fillTelemetrySnapshot(t *testing.T) *telemetry.Snapshot {
	t.Helper()
	var sp telemetry.Snapshot
	for i := range sp.Stages {
		h := &sp.Stages[i]
		h.Counts[i] = uint64(i + 1)
		h.Counts[telemetry.NumBuckets-1-i] = 1
		h.Count = uint64(i+1) + 1
		h.Sum = int64(1000 * (i + 1))
		h.Max = int64(100 * (i + 1))
	}
	sp.Sampled, sp.Slow, sp.DroppedSpans = 7, 3, 2

	v := reflect.ValueOf(sp)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fillTelemetrySnapshot left Snapshot.%s zero; update the filler", v.Type().Field(i).Name)
		}
	}
	h0 := reflect.ValueOf(sp.Stages[0])
	for i := 0; i < h0.NumField(); i++ {
		if h0.Field(i).IsZero() {
			t.Fatalf("fillTelemetrySnapshot left HistSnapshot.%s zero; update the filler", h0.Type().Field(i).Name)
		}
	}
	return &sp
}

// TestTelemetrySnapshotMergeEveryField is the runtime twin of the statsfold
// analyzer for the telemetry counters: merging a fully-populated Snapshot
// into a zero one must reproduce it exactly (Max folds by maximum, every
// other field additively), and a double merge must double every additive
// field while Max stays put.
func TestTelemetrySnapshotMergeEveryField(t *testing.T) {
	filled := fillTelemetrySnapshot(t)

	var sum telemetry.Snapshot
	sum.Merge(filled)
	if sum != *filled {
		t.Fatal("zero.Merge(filled) did not reproduce the filled snapshot")
	}
	sum.Merge(filled)
	if sum.Sampled != 2*filled.Sampled || sum.Slow != 2*filled.Slow || sum.DroppedSpans != 2*filled.DroppedSpans {
		t.Errorf("double merge counters: %d/%d/%d", sum.Sampled, sum.Slow, sum.DroppedSpans)
	}
	for i := range sum.Stages {
		if sum.Stages[i].Count != 2*filled.Stages[i].Count {
			t.Errorf("stage %v count = %d, want %d", telemetry.Stage(i), sum.Stages[i].Count, 2*filled.Stages[i].Count)
		}
		if sum.Stages[i].Sum != 2*filled.Stages[i].Sum {
			t.Errorf("stage %v sum = %d, want %d", telemetry.Stage(i), sum.Stages[i].Sum, 2*filled.Stages[i].Sum)
		}
		if sum.Stages[i].Max != filled.Stages[i].Max {
			t.Errorf("stage %v max = %d, want unchanged %d", telemetry.Stage(i), sum.Stages[i].Max, filled.Stages[i].Max)
		}
	}
}
