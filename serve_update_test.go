package e2lshos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"e2lshos/internal/diskindex"
)

// newUpdateServer builds a real WAL-backed StorageIndex behind a Server,
// returning the dataset too (vectors [1000:] are insertable headroom).
func newUpdateServer(t *testing.T) (*Dataset, *Server, http.Handler) {
	t.Helper()
	ds, err := GenerateDataset(DatasetSpec{
		Name: "srvupd", N: 1100, Queries: 3, Dim: 16,
		Clusters: 4, Spread: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewStorageIndex(ds.Vectors[:1000], Config{Sigma: 64}, WithWAL(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ix, ServerConfig{Dim: 16, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return ds, srv, srv.Handler()
}

// TestServeInsertDelete drives the mutation endpoints end to end: insert a
// vector over HTTP, find it via /v1/search, delete it, see it gone, and
// check the durability counters surface in /stats and /metrics.
func TestServeInsertDelete(t *testing.T) {
	ds, _, h := newUpdateServer(t)

	rec := postJSON(t, h, "/v1/insert", insertRequest{Vector: ds.Vectors[1000]})
	if rec.Code != 200 {
		t.Fatalf("/v1/insert returned %d: %s", rec.Code, rec.Body)
	}
	var ins insertResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ins); err != nil {
		t.Fatal(err)
	}
	if ins.ID != 1000 {
		t.Fatalf("insert assigned ID %d, want 1000", ins.ID)
	}

	rec = postJSON(t, h, "/v1/search", searchRequestV1{Query: ds.Vectors[1000], K: 1})
	if rec.Code != 200 {
		t.Fatalf("/v1/search returned %d: %s", rec.Code, rec.Body)
	}
	var sr searchResponseV1
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Neighbors) == 0 || sr.Neighbors[0].ID != 1000 || sr.Neighbors[0].Dist != 0 {
		t.Fatalf("inserted vector not served back: %+v", sr.Neighbors)
	}

	del := httptest.NewRecorder()
	h.ServeHTTP(del, httptest.NewRequest("DELETE", "/v1/object/1000", nil))
	if del.Code != 200 {
		t.Fatalf("DELETE /v1/object/1000 returned %d: %s", del.Code, del.Body)
	}
	var dr deleteResponse
	if err := json.Unmarshal(del.Body.Bytes(), &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Removed || dr.ID != 1000 {
		t.Fatalf("delete response: %+v", dr)
	}
	rec = postJSON(t, h, "/v1/search", searchRequestV1{Query: ds.Vectors[1000], K: 1})
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Neighbors) > 0 && sr.Neighbors[0].ID == 1000 && sr.Neighbors[0].Dist == 0 {
		t.Fatal("deleted vector still served")
	}

	// /stats: serving-level mutation counters plus the WAL's own.
	st := httptest.NewRecorder()
	h.ServeHTTP(st, httptest.NewRequest("GET", "/stats", nil))
	var stats statsResponse
	if err := json.Unmarshal(st.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Inserts != 1 || stats.Deletes != 1 {
		t.Fatalf("stats mutation counters: inserts=%d deletes=%d", stats.Inserts, stats.Deletes)
	}
	if stats.WALAppends != 2 || stats.WALGeneration != 1 {
		t.Fatalf("stats WAL counters: %+v", stats)
	}

	// /metrics: the Prometheus lines for the same counters.
	met := httptest.NewRecorder()
	h.ServeHTTP(met, httptest.NewRequest("GET", "/metrics", nil))
	body := met.Body.String()
	for _, want := range []string{
		"lsh_inserts_total 1",
		"lsh_deletes_total 1",
		"lsh_wal_appends_total 2",
		"lsh_wal_replayed_total 0",
		"lsh_wal_generation 1",
		"lsh_wal_torn_tail 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsStoreBytesBesideInserts: /metrics reads the store's size and
// its stranded bytes while inserts grow them (under -race, the check that
// the reads are synchronized), and the gauges follow: the store grows, and
// the bytes that moved buckets left behind, none on a fresh build, are some
// but not all of it.
func TestMetricsStoreBytesBesideInserts(t *testing.T) {
	ds, _, h := newUpdateServer(t)
	gauge := func(name string) float64 {
		met := httptest.NewRecorder()
		h.ServeHTTP(met, httptest.NewRequest("GET", "/metrics", nil))
		for _, line := range strings.Split(met.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("/metrics has no %s", name)
		return 0
	}
	before := gauge("lsh_index_store_bytes")
	if stranded := gauge("lsh_index_stranded_bytes"); stranded != 0 {
		t.Errorf("a fresh build strands %v bytes", stranded)
	}
	done := make(chan error, 1)
	go func() {
		for i := 1000; i < 1020; i++ { // 10 ID bits leave 24 insert slots
			body, _ := json.Marshal(insertRequest{Vector: ds.Vectors[i]})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/insert", bytes.NewReader(body)))
			if rec.Code != 200 {
				done <- fmt.Errorf("insert %d: %d %s", i, rec.Code, rec.Body)
				return
			}
		}
		done <- nil
	}()
	for scraping := true; scraping; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			scraping = false
		default:
			gauge("lsh_index_store_bytes")
			gauge("lsh_index_stranded_bytes")
		}
	}
	after := gauge("lsh_index_store_bytes")
	if after <= before {
		t.Errorf("20 inserts left lsh_index_store_bytes at %v (was %v)", after, before)
	}
	if stranded := gauge("lsh_index_stranded_bytes"); stranded <= 0 || stranded >= after {
		t.Errorf("after 20 inserts lsh_index_stranded_bytes = %v of %v store bytes", stranded, after)
	}
	if live := gauge("lsh_go_heap_live_bytes"); live <= 0 {
		t.Errorf("lsh_go_heap_live_bytes = %v", live)
	}
}

// TestServeUpdateValidation pins the mutation endpoints' error contract.
func TestServeUpdateValidation(t *testing.T) {
	ds, _, h := newUpdateServer(t)

	// Wrong dimensionality.
	rec := postJSON(t, h, "/v1/insert", insertRequest{Vector: []float32{1, 2}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("short vector: got %d", rec.Code)
	}
	// Wrong methods.
	for _, tc := range [][2]string{{"GET", "/v1/insert"}, {"POST", "/v1/object/3"}, {"POST", "/stats"}} {
		wrong := httptest.NewRecorder()
		h.ServeHTTP(wrong, httptest.NewRequest(tc[0], tc[1], nil))
		if wrong.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: got %d", tc[0], tc[1], wrong.Code)
		}
	}
	// Bad and unknown IDs.
	bad := httptest.NewRecorder()
	h.ServeHTTP(bad, httptest.NewRequest("DELETE", "/v1/object/xyz", nil))
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("DELETE /v1/object/xyz: got %d", bad.Code)
	}
	missing := httptest.NewRecorder()
	h.ServeHTTP(missing, httptest.NewRequest("DELETE", "/v1/object/999999", nil))
	if missing.Code != http.StatusNotFound {
		t.Fatalf("DELETE of unknown ID: got %d", missing.Code)
	}
	_ = ds

	// Engines without the mutation surface answer 501.
	srv2, err := NewServer(&captureEngine{}, ServerConfig{Dim: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	h2 := srv2.Handler()
	rec = postJSON(t, h2, "/v1/insert", insertRequest{Vector: []float32{1, 2}})
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("insert on non-updatable engine: got %d", rec.Code)
	}
}

// TestServeBodyBounds: both POST routes stop reading a body at the server's
// bound and answer 413, refuse bytes after the JSON value with 400, and keep
// serving afterwards.
func TestServeBodyBounds(t *testing.T) {
	ds, _, h := newUpdateServer(t)
	search, err := json.Marshal(searchRequestV1{Query: ds.Vectors[0]})
	if err != nil {
		t.Fatal(err)
	}
	insert, err := json.Marshal(insertRequest{Vector: ds.Vectors[1000]})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return rec.Code
	}
	// A well-formed request padded to 1 MB: only its length is wrong.
	padding := bytes.Repeat([]byte(" "), 1<<20)
	for _, tc := range []struct {
		path string
		body []byte
	}{{"/v1/search", search}, {"/v1/insert", insert}} {
		if got := post(tc.path, slices.Concat(tc.body, padding)); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a 1 MB body: got %d, want 413", tc.path, got)
		}
		if got := post(tc.path, slices.Concat(tc.body, []byte("{}"))); got != http.StatusBadRequest {
			t.Errorf("%s with bytes after the value: got %d, want 400", tc.path, got)
		}
		if got := post(tc.path, tc.body); got != http.StatusOK {
			t.Errorf("%s after the refused bodies: got %d, want 200", tc.path, got)
		}
	}
}

// deleteStub is an updatable engine whose Delete fails as told.
type deleteStub struct {
	captureEngine
	err error
}

func (e *deleteStub) Insert([]float32) (uint32, error) { return 0, nil }
func (e *deleteStub) Delete(uint32) (bool, error)      { return false, e.err }

// TestServeDeleteNotFoundBySentinel: a delete answers 404 because the
// engine's error wraps diskindex.ErrUnknownID, whatever its wording, and an
// unrelated failure that happens to say "unknown ID" stays a 500.
func TestServeDeleteNotFoundBySentinel(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("shard 3: no such object: %w", diskindex.ErrUnknownID), http.StatusNotFound},
		{errors.New("wal: append failed after unknown ID 7 was logged"), http.StatusInternalServerError},
	} {
		srv, err := NewServer(&deleteStub{err: tc.err}, ServerConfig{Dim: 2, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/object/7", nil))
		srv.Close()
		if rec.Code != tc.want {
			t.Errorf("Delete failing with %q: got %d, want %d", tc.err, rec.Code, tc.want)
		}
	}
}
