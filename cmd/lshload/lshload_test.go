package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"e2lshos/internal/blockstore"
)

func TestGeneratorDeterminism(t *testing.T) {
	spec := streamSpec{Queries: 40, ZipfS: 1.1, WriteShare: 0.10}
	a := encodeStream(genStream(7, spec, 5000))
	b := encodeStream(genStream(7, spec, 5000))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different request streams")
	}
	if bytes.Equal(a, encodeStream(genStream(8, spec, 5000))) {
		t.Fatal("different seeds produced the same request stream")
	}
	if !bytes.Equal(searchBody([]float32{1, 2.5}), searchBody([]float32{1, 2.5})) {
		t.Fatal("request body encoding is not deterministic")
	}
	v1, v2 := insertVector(7, 3, [][]float32{{9, 9, 9}}), insertVector(7, 3, [][]float32{{9, 9, 9}})
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("insert vectors are not a function of (seed, ordinal)")
		}
	}
}

func TestGeneratorShape(t *testing.T) {
	const queries = 40
	reqs := genStream(3, streamSpec{Queries: queries, WriteShare: 0.10}, 4000)
	seen := map[int32]bool{}
	searches := 0
	insertAt := map[int32]int{}
	counts := map[opKind]int{}
	for i, r := range reqs {
		counts[r.Kind]++
		switch r.Kind {
		case opSearch:
			if searches < queries {
				if seen[r.Arg] {
					t.Fatalf("query %d repeated inside the first pass", r.Arg)
				}
				seen[r.Arg] = true
			}
			searches++
		case opInsert:
			insertAt[r.Arg] = i
		case opDelete:
			at, ok := insertAt[r.Arg]
			if !ok {
				t.Fatalf("request %d deletes insert %d, which comes later or never", i, r.Arg)
			}
			if i-at < deleteLag {
				t.Fatalf("request %d deletes an insert only %d operations old", i, i-at)
			}
			delete(insertAt, r.Arg) // each insert is deleted at most once
		}
	}
	if len(seen) != queries {
		t.Fatalf("first pass covered %d of %d queries", len(seen), queries)
	}
	writes := float64(counts[opInsert]+counts[opDelete]) / float64(len(reqs))
	if writes < 0.07 || writes > 0.13 {
		t.Fatalf("write share %.3f, want about 0.10", writes)
	}
	// Zipf: the hottest query dominates after the first pass.
	z := genStream(3, streamSpec{Queries: queries, ZipfS: 1.1}, 4000)
	freq := map[int32]int{}
	for _, r := range z[queries:] {
		freq[r.Arg]++
	}
	top := 0
	for _, c := range freq {
		top = max(top, c)
	}
	if top < 4*(len(z)-queries)/queries {
		t.Fatalf("Zipf draws look uniform: hottest query drawn %d times of %d", top, len(z)-queries)
	}
}

// fakeClock advances only when told to: Sleep by the scheduler, work by the
// request function.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time        { return f.now }
func (f *fakeClock) Sleep(d time.Duration) { f.now = f.now.Add(d) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	// 10 req/s (due every 100 ms), each taking 150 ms on one worker: the
	// generator falls 50 ms further behind with every request.
	do := func(_, i int) response {
		clk.Sleep(150 * time.Millisecond)
		return response{}
	}
	samples := runOpen(context.Background(), clk, 1, 10, time.Second, 100, do)
	if len(samples) != 10 {
		t.Fatalf("got %d samples, want 10", len(samples))
	}
	for i, s := range samples {
		due := time.Duration(i) * 100 * time.Millisecond
		if s.Due != due {
			t.Errorf("request %d due at %v, want %v", i, s.Due, due)
		}
		wantLate := time.Duration(i) * 50 * time.Millisecond
		if s.lateness() != wantLate {
			t.Errorf("request %d lateness %v, want %v", i, s.lateness(), wantLate)
		}
		if want := wantLate + 150*time.Millisecond; s.latency() != want {
			t.Errorf("request %d latency %v, want %v (timed from its due time, not its send time)", i, s.latency(), want)
		}
	}
	// A fast system: the scheduler sleeps to each due time, lateness is zero.
	clk = &fakeClock{now: time.Unix(0, 0)}
	fast := runOpen(context.Background(), clk, 1, 10, time.Second, 100, func(_, i int) response {
		clk.Sleep(time.Millisecond)
		return response{}
	})
	for i, s := range fast {
		if s.lateness() != 0 || s.latency() != time.Millisecond {
			t.Errorf("request %d: lateness %v latency %v, want 0 and 1ms", i, s.lateness(), s.latency())
		}
	}
}

func TestClosedLoopStopsAtDeadlineAndLimit(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	do := func(_, i int) response { clk.Sleep(100 * time.Millisecond); return response{} }
	if got := len(runClosed(context.Background(), clk, 1, time.Second, 1000, do)); got != 10 {
		t.Errorf("closed loop ran %d requests in 1s at 100ms each, want 10", got)
	}
	clk = &fakeClock{now: time.Unix(0, 0)}
	if got := len(runClosed(context.Background(), clk, 1, time.Second, 4, do)); got != 4 {
		t.Errorf("closed loop ran %d requests past a stream of 4", got)
	}
}

func TestSegmentQuantileIgnoresOneStall(t *testing.T) {
	var vs []timedValue
	for i := 0; i < 5000; i++ {
		at := time.Duration(i) * time.Millisecond
		v := 1.0
		if i >= 2000 && i < 2200 {
			v = 500 // one 200 ms stall, wholly inside the third of five segments
		}
		vs = append(vs, timedValue{at, v})
	}
	p99, minCount := segmentQuantile(vs, 5*time.Second, 5, 0.99)
	if p99 != 1 {
		t.Errorf("segment-median p99 = %v, want 1 (the stall lands in one segment)", p99)
	}
	if minCount != 1000 {
		t.Errorf("smallest segment has %d samples, want 1000", minCount)
	}
	if whole, _ := segmentQuantile(vs, 5*time.Second, 1, 0.99); whole != 500 {
		t.Errorf("plain p99 = %v, want 500 (the stall is 4%% of the samples)", whole)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); got != 9 {
		t.Errorf("nearest-rank p90 of 1..10 = %v, want 9", got)
	}
	if tailSegments(1250) != 1 || tailSegments(5000) != 5 || tailSegments(100000) != 5 {
		t.Error("tailSegments must give one segment per 1000 samples, at most five")
	}
}

func TestSegmentRate(t *testing.T) {
	var ends []time.Duration
	for i := 0; i < 1000; i++ { // 1000/s for the first second
		ends = append(ends, time.Duration(i)*time.Millisecond)
	}
	for i := 0; i < 400; i++ { // 100/s for the next four
		ends = append(ends, time.Second+time.Duration(i)*10*time.Millisecond)
	}
	if got := segmentRate(ends, 5*time.Second, 5); math.Abs(got-100) > 1 {
		t.Errorf("median segment rate = %v, want about 100", got)
	}
}

func TestFirstPassAveraging(t *testing.T) {
	fp := newFirstPass(3)
	for _, x := range []struct {
		q int
		v float64
	}{{0, 10}, {1, 20}, {0, 1000}, {1, 1000}, {2, 30}, {2, 1000}} {
		fp.add(x.q, x.v)
	}
	if !fp.complete() || fp.mean() != 20 {
		t.Errorf("first-pass mean = %v (complete %v), want 20: repeats must not count", fp.mean(), fp.complete())
	}
}

func TestCheckerRejects(t *testing.T) {
	db := [][]float32{{0, 0}, {3, 4}, {6, 8}}
	vector := func(id uint32) []float32 {
		if int(id) < len(db) {
			return db[id]
		}
		return nil
	}
	q := []float32{0, 0}
	good := []neighbor{{0, 0}, {1, 5}, {2, 10}}
	if fail := checkNeighbors(q, good, 3, vector); fail != "" {
		t.Fatalf("correct answer rejected: %s", fail)
	}
	for want, got := range map[string][]neighbor{
		"wrong-distance":     {{0, 0}, {1, 5.01}, {2, 10}},
		"duplicate-id":       {{0, 0}, {1, 5}, {1, 5}},
		"unsorted":           {{1, 5}, {0, 0}, {2, 10}},
		"too-many-neighbors": {{0, 0}, {1, 5}, {2, 10}, {2, 10}},
		"unknown-id":         {{0, 0}, {7, 5}},
	} {
		k := 3
		if fail := checkNeighbors(q, got, k, vector); fail != want {
			t.Errorf("checker said %q, want %q", fail, want)
		}
	}
}

// TestBackendsFollowBlockstoreRules holds the benchmark's backends to the
// expectations blockstore's own backends are tested against: round trips,
// zero-padded short writes, zero blocks past the end, and the NextRun
// coalescing count.
func TestBackendsFollowBlockstoreRules(t *testing.T) {
	fb, err := newFileBackend(filepath.Join(t.TempDir(), "blocks"))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	for name, be := range map[string]blockstore.Backend{"file": fb, "mem": &memBackend{}} {
		t.Run(name, func(t *testing.T) {
			if be.NumBlocks() != 1 {
				t.Errorf("empty backend NumBlocks = %d, want 1", be.NumBlocks())
			}
			full := bytes.Repeat([]byte{0xAB}, blockstore.BlockSize)
			for a := blockstore.Addr(1); a <= 200; a++ {
				full[0] = byte(a)
				if err := be.WriteBlock(a, full); err != nil {
					t.Fatal(err)
				}
			}
			if be.NumBlocks() != 201 {
				t.Errorf("NumBlocks = %d after writing 200 blocks, want 201", be.NumBlocks())
			}
			if err := be.WriteBlock(7, []byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, blockstore.BlockSize)
			if err := be.ReadBlock(7, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != 1 || buf[2] != 3 || buf[3] != 0 || buf[blockstore.BlockSize-1] != 0 {
				t.Error("short write must zero-pad the rest of the block")
			}
			buf[5] = 9
			if err := be.ReadBlock(5000, buf); err != nil {
				t.Fatalf("read past the end: %v", err)
			}
			if !bytes.Equal(buf, make([]byte, blockstore.BlockSize)) {
				t.Error("a block past the end must read as zeros")
			}
			if be.ReadBlock(blockstore.Nil, buf) == nil || be.WriteBlock(blockstore.Nil, buf) == nil {
				t.Error("the nil address must be rejected")
			}
			if be.ReadBlock(1, make([]byte, 10)) == nil {
				t.Error("a too-small read buffer must be rejected")
			}
			if be.WriteBlock(1, make([]byte, blockstore.BlockSize+1)) == nil {
				t.Error("an oversized write must be rejected")
			}

			long := make([]blockstore.Addr, 150) // one run longer than MaxCoalesce
			for i := range long {
				long[i] = blockstore.Addr(20 + i)
			}
			for _, addrs := range [][]blockstore.Addr{
				{1}, {1, 2, 3}, {3, 2, 1}, {1, 3, 5}, {10, 11, 12, 40, 41, 90}, {199, 200, 201, 202}, long,
			} {
				wantOps := 0
				for i := 0; i < len(addrs); i = blockstore.NextRun(addrs, i) {
					wantOps++
				}
				bufs := make([][]byte, len(addrs))
				for i := range bufs {
					bufs[i] = make([]byte, blockstore.BlockSize)
				}
				ops, err := be.ReadBlocks(addrs, bufs)
				if err != nil {
					t.Fatal(err)
				}
				if ops != wantOps {
					t.Errorf("ReadBlocks(%v...) = %d ops, NextRun says %d", addrs[0], ops, wantOps)
				}
				for i, a := range addrs {
					one := make([]byte, blockstore.BlockSize)
					if err := be.ReadBlock(a, one); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(bufs[i], one) {
						t.Errorf("ReadBlocks and ReadBlock disagree on block %d", a)
					}
				}
			}
			if _, err := be.ReadBlocks([]blockstore.Addr{1, 2}, [][]byte{buf}); err == nil {
				t.Error("mismatched address and buffer counts must be rejected")
			}
		})
	}
}

func TestCountingBackendCounts(t *testing.T) {
	cb := &countingBackend{inner: &memBackend{}}
	buf := make([]byte, blockstore.BlockSize)
	for a := blockstore.Addr(1); a <= 10; a++ {
		if err := cb.WriteBlock(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	cb.ReadBlock(1, buf)
	bufs := [][]byte{make([]byte, 512), make([]byte, 512), make([]byte, 512)}
	cb.ReadBlocks([]blockstore.Addr{2, 3, 9}, bufs)
	if ops, blocks := cb.counts(); ops != 3 || blocks != 4 {
		t.Errorf("counted %d ops / %d blocks, want 3 / 4 (writes are not reads)", ops, blocks)
	}
	if len(cb.spans) != 0 {
		t.Error("spans recorded without a recorder attached")
	}
}

func TestUnionAndAnalyze(t *testing.T) {
	if got := union([][2]int64{{0, 10}, {5, 20}, {30, 40}, {-5, 2}}, 0, 35); got != 25 {
		t.Errorf("union = %d, want 25", got)
	}
	// One request: client 0..100, serve 10..90, engine 20..80, two shards
	// (30..50 and 30..70), backend reads under the slow shard 40..50, 45..60.
	spans := []span{
		{ID: 1, Parent: 0, Request: 1, Layer: layerClient, Name: "search", Start: 0, End: 100_000},
		{ID: 2, Parent: 1, Request: 1, Layer: layerServe, Name: "/v1/search", Start: 10_000, End: 90_000},
		{ID: 3, Parent: 2, Request: 1, Layer: layerEngine, Name: "batch-search", Start: 20_000, End: 80_000},
		{ID: 4, Parent: 3, Request: 1, Layer: layerShard, Name: "batch-search", Start: 30_000, End: 50_000},
		{ID: 5, Parent: 3, Request: 1, Layer: layerShard, Name: "batch-search", Start: 30_000, End: 70_000},
	}
	ops := []opSpan{{Start: 40_000, End: 50_000, Parent: 5, Blocks: 1}, {Start: 45_000, End: 60_000, Parent: 5, Blocks: 2},
		{Start: 31_000, End: 49_000, Parent: 4, Blocks: 1}}
	tab := analyze(spans, ops)
	want := map[string]float64{layerClient: 20, layerServe: 20, layerEngine: 20, layerShard: 20, layerBackend: 20}
	for layer, us := range want {
		if tab.SelfUS[layer] != us {
			t.Errorf("%s self = %v us, want %v", layer, tab.SelfUS[layer], us)
		}
	}
	if tab.ResidualUS != 0 || tab.ScatterSelfUS != 20 || tab.SkewUS != 20 {
		t.Errorf("residual %v scatter-self %v skew %v, want 0 20 20", tab.ResidualUS, tab.ScatterSelfUS, tab.SkewUS)
	}
	if tab.Counts["backend.blocks"] != 3 {
		t.Errorf("blocking-path backend blocks = %v, want 3 (the fast shard is off the path)", tab.Counts["backend.blocks"])
	}
	var out bytes.Buffer
	if err := writeTrace(&out, "w", spans, ops, newRecorder()); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\n"); n != len(spans)+len(ops) {
		t.Errorf("trace has %d lines, want %d", n, len(spans)+len(ops))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"x_ms", "ms", "lower", 0.10}
	higher := metricDef{"x_qps", "1/s", "higher", 0.10}
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	if _, s := verdict(lower, steady, scale(steady, 1.05)); s != "ok" {
		t.Errorf("5%% worse under a 10%% bound: %s", s)
	}
	if _, s := verdict(lower, steady, scale(steady, 1.2)); s != "BREACH" {
		t.Errorf("20%% slower under a 10%% bound: %s", s)
	}
	if _, s := verdict(lower, steady, scale(steady, 0.5)); s != "ok" {
		t.Errorf("an improvement must pass: %s", s)
	}
	if _, s := verdict(higher, steady, scale(steady, 0.8)); s != "BREACH" {
		t.Errorf("20%% less throughput under a 10%% bound: %s", s)
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	if _, s := verdict(lower, noisy, scale(steady, 1.2)); s != "unresolved" {
		t.Errorf("a spread wider than the bound must be unresolved, not %s", s)
	}

	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			m := map[string]float64{}
			for _, d := range endToEnd {
				m[d.Name] = 1
			}
			m["search_p50_ms"] = p50
			if err := appendJSONLine(path, &runResult{Workload: "serve-read", Metrics: m}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, worse := write("a", 2), write("same", 2.1), write("worse", 3)
	var out bytes.Buffer
	if code := compareFiles(a, same, &out, &out); code != 0 {
		t.Errorf("compare within bounds exited %d\n%s", code, out.String())
	}
	if code := compareFiles(a, worse, &out, &out); code != 1 {
		t.Errorf("compare with a breach exited %d\n%s", code, out.String())
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, which the driver
// reads, and the catalogue, which the program prints from, the same.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q / program %q (name and why must match)", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the catalogue %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, d := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, catalogue %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("the end-to-end metrics must include setup_s (s, lower)")
	}
	for i, d := range perLayer {
		j := doc.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, catalogue %+v", i, j, d)
		}
	}
	for _, na := range notApplicable {
		for _, name := range na {
			found := false
			for _, d := range perLayer {
				found = found || d.Name == name
			}
			if !found {
				t.Errorf("notApplicable names %q, which is not a per-layer metric", name)
			}
		}
	}
}

// TestSmoke runs all four workloads end to end at n=2500 with 1 s phases,
// traced pass and leaf timings included: a real lshserve child, the kill and
// recovery, the image round trip. It measures nothing; it proves the
// benchmark still runs against the tree it sits in.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs lshserve; skipped under -short")
	}
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir) // pid file and scratch under the test's directory
	out := filepath.Join(dir, "out.jsonl")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-smoke", "-trace", "1", "-strict", "-seed", "5",
		"-tracefile", filepath.Join(dir, "trace.jsonl"), "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("lshload -smoke exited %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	runs, err := readRuns(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			if vs := runs[w.Name][d.Name]; len(vs) != 1 || vs[0] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want one positive value", w.Name, d.Name, vs)
			}
		}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line of stdout is not the result object: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 || len(last.Metrics) != len(perLayer) {
		t.Errorf("result line: correct=%v failed=%d attempted=%d with %d metrics, want all %d per-layer metrics",
			last.Correct, last.Failed, last.Attempted, len(last.Metrics), len(perLayer))
	}
	if st, err := os.Stat(filepath.Join(dir, "trace.jsonl")); err != nil || st.Size() == 0 {
		t.Errorf("trace.jsonl not written: %v", err)
	}
	if _, err := os.Stat(pidFilePath()); err == nil {
		t.Error("pid file left behind: a child may still be alive")
	}
}
