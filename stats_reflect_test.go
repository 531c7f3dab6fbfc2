package e2lshos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"e2lshos/internal/foldtest"
	"e2lshos/internal/telemetry"
)

// fillStats sets field i of a Stats to i+1 via reflection, so a counter
// dropped anywhere downstream shows up as an exact missing value rather than
// a silent zero.
func fillStats() Stats {
	var st Stats
	foldtest.Fill(&st)
	return st
}

// TestStatsMergeEveryField: merging a fully-populated Stats into a zero one
// must reproduce it exactly, and merging twice must double every field. A
// Merge that forgets a counter fails on the exact field name.
func TestStatsMergeEveryField(t *testing.T) {
	filled := fillStats()

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
	"RoundsSkipped":    "rounds_skipped",
	"BudgetExhausted":  "budget_exhausted",
	"DegradedKnobs":    "degraded_knobs",
	"RecallStopped":    "recall_stopped",
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

// servedOnce returns the handler of a server whose engine reports st for
// every batch, after one query has gone through it.
func servedOnce(t *testing.T, st Stats) http.Handler {
	t.Helper()
	srv, err := NewServer(statsStubEngine{st: st}, ServerConfig{Dim: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := srv.Handler()
	if rec := postJSON(t, h, "/v1/search", searchRequestV1{Query: []float32{1, 2}}); rec.Code != 200 {
		t.Fatalf("/v1/search returned %d: %s", rec.Code, rec.Body)
	}
	return h
}

// TestStatsEndpointExposesEveryCounter drives one query through the server
// and asserts /stats carries every Stats counter, by name, with the value
// the engine reported, under the name pinned in statsJSONKeys.
func TestStatsEndpointExposesEveryCounter(t *testing.T) {
	filled := fillStats()
	typ := reflect.TypeOf(filled)
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := statsJSONKeys[typ.Field(i).Name]; !ok {
			t.Fatalf("Stats.%s has no /stats JSON key registered in statsJSONKeys", typ.Field(i).Name)
		}
	}

	h := servedOnce(t, filled)
	rec := httptest.NewRecorder()
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
	filled := fillStats()
	h := servedOnce(t, filled)
	rec := httptest.NewRecorder()
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

// TestStatsTagsAreTheWireNames adds nothing by hand: every field of Stats
// carries a unique snake_case tag, and that tag is the field's /stats key and,
// as lsh_stats_<tag>_total, its /metrics name, both with the value the engine
// reported. A new counter therefore needs its field, its tag and the two
// pinned lists (statsJSONKeys here, statsPromNames in cmd/lshserve), and
// nothing else.
func TestStatsTagsAreTheWireNames(t *testing.T) {
	filled := fillStats()
	h := servedOnce(t, filled)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	page := rec.Body.String()

	snake := regexp.MustCompile(`^[a-z]+(_[a-z]+)*$`)
	owner := map[string]string{}
	v := reflect.ValueOf(filled)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		tag := f.Tag.Get("json")
		if !snake.MatchString(tag) {
			t.Errorf("Stats.%s: tag %q is not a snake_case wire name", f.Name, tag)
			continue
		}
		if prev, dup := owner[tag]; dup {
			t.Errorf("Stats.%s and Stats.%s share the wire name %q", prev, f.Name, tag)
		}
		owner[tag] = f.Name
		want := v.Field(i).Int()
		if got, ok := stats[tag]; !ok || got != float64(want) {
			t.Errorf("/stats %q = %v, want %d (Stats.%s)", tag, got, want, f.Name)
		}
		if line := fmt.Sprintf("\nlsh_stats_%s_total %d\n", tag, want); !strings.Contains(page, line) {
			t.Errorf("/metrics missing %q for Stats.%s", strings.TrimSpace(line), f.Name)
		}
	}
}

// TestTelemetrySnapshotMergeEveryField: merging a Snapshot with every field,
// every stage histogram and every bucket filled into a zero one must
// reproduce it exactly (Max folds by maximum, every other field additively),
// a double merge must double every additive field while Max stays put, and
// FoldShard must do the same for every stage but the end-to-end total, which
// a sharded engine measures once at its own layer.
func TestTelemetrySnapshotMergeEveryField(t *testing.T) {
	var filled telemetry.Snapshot
	foldtest.Fill(&filled)

	var sum telemetry.Snapshot
	sum.Merge(&filled)
	if sum != filled {
		t.Fatal("zero.Merge(filled) did not reproduce the filled snapshot")
	}
	sum.Merge(&filled)
	if sum.Sampled != 2*filled.Sampled || sum.Slow != 2*filled.Slow || sum.DroppedSpans != 2*filled.DroppedSpans {
		t.Errorf("double merge counters: %d/%d/%d", sum.Sampled, sum.Slow, sum.DroppedSpans)
	}
	for i := range sum.Stages {
		got, one := &sum.Stages[i], &filled.Stages[i]
		for b := range got.Counts {
			if got.Counts[b] != 2*one.Counts[b] {
				t.Errorf("stage %v bucket %d = %d, want %d", telemetry.Stage(i), b, got.Counts[b], 2*one.Counts[b])
			}
		}
		if got.Count != 2*one.Count || got.Sum != 2*one.Sum {
			t.Errorf("stage %v count/sum = %d/%d, want %d/%d", telemetry.Stage(i), got.Count, got.Sum, 2*one.Count, 2*one.Sum)
		}
		if got.Max != one.Max {
			t.Errorf("stage %v max = %d, want unchanged %d", telemetry.Stage(i), got.Max, one.Max)
		}
	}

	var shard telemetry.Snapshot
	shard.FoldShard(&filled)
	want := filled
	want.Stages[telemetry.StageTotal] = telemetry.HistSnapshot{}
	if shard != want {
		t.Fatal("zero.FoldShard(filled) is not the filled snapshot minus its end-to-end stage")
	}
}
