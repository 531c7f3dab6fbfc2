package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"e2lshos"
)

// options are the run's settings, shared by every workload.
type options struct {
	Seed    int64
	Seconds float64 // timed seconds per workload, split across its phases
	Smoke   bool    // tiny database, for the end-to-end test
	Trace   bool    // also produce the per-layer metrics (sources A, B and C)
	Strict  bool    // a missing per-layer metric fails the run

	LshserveBin string // prebuilt child binary; built on demand when empty
	LayersBin   string // prebuilt cmd/lshload/layers; built on demand when empty
	TmpDir      string // this run's scratch directory, removed on exit
	TracePath   string // where -trace writes spans
	Log         io.Writer
}

func (o *options) logf(format string, args ...any) { fmt.Fprintf(o.Log, format, args...) }

// phase converts a share of the run's timed seconds (in twelfths: every
// workload splits its time into twelve parts) to a duration.
func (o *options) phase(twelfths int) time.Duration {
	return time.Duration(o.Seconds * float64(twelfths) / 12 * float64(time.Second))
}

// k is the top-k every workload searches for, as in the paper's k=10 rows.
const k = 10

// sloP99 is the stated service objective: p99 within 10 ms at the
// workload's fixed open-loop rate.
const sloP99 = 10 * time.Millisecond

// runResult is what one workload run measured.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  failures           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Missing   []string           `json:"missing,omitempty"`

	notes []string
}

func newResult(name string, o *options) *runResult {
	return &runResult{Workload: name, Seed: o.Seed, Trace: o.Trace, Failures: failures{}, Metrics: map[string]float64{}}
}

func (r *runResult) set(name string, v float64) { r.Metrics[name] = v }

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation under the name of its failed check.
func (r *runResult) fail(name string) {
	r.Failures.add(name)
	r.Failed++
}

// workload is one named traffic shape. The names are fixed: later issues
// cite them.
type workload struct {
	Name string
	Why  string
	Run  func(ctx context.Context, o *options) (*runResult, error)
}

var workloads = []workload{
	{
		Name: "serve-read",
		Why:  "shipped lshserve defaults over loopback HTTP, uniform distinct queries: HTTP/JSON, coalescer wait and 4-way shard scatter do the work; cache and ioengine do none",
		Run:  func(ctx context.Context, o *options) (*runResult, error) { return runServe(ctx, o, serveRead(o)) },
	},
	{
		Name: "serve-hot",
		Why:  "one shard with -cache 64 -iodepth 16 -readahead 2, Zipf(1.1) over 256 queries that fit the cache: blockcache, ioengine and readahead do the work; shard scatter does none",
		Run:  func(ctx context.Context, o *options) (*runResult, error) { return runServe(ctx, o, serveHot(o)) },
	},
	{
		Name: "serve-mixed-wal",
		Why:  "one crash-safe engine with fsync per append, 90/5/5 search/insert/delete, then SIGKILL and recovery: writers beside readers under one lock plus a real fsync",
		Run:  func(ctx context.Context, o *options) (*runResult, error) { return runServe(ctx, o, serveMixedWAL(o)) },
	},
	{
		Name: "lib-file-batch",
		Why:  "in-process BatchSearch and Search at n=200000 over a real file: no HTTP, coalescer or shards; the radius ladder, kernels, ioengine and pread do the work",
		Run:  runLib,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// corpus is the database and queries one workload runs over: the product's
// deterministic SIFT clone, never a function of the seed.
type corpus struct {
	ds    *e2lshos.Dataset
	truth []e2lshos.Result // exact top-k of the first len(truth) queries
}

// loadCorpus generates the clone at n with q held-out queries and the exact
// answers of the first `scored` of them. lshserve -paper SIFT -n n generates
// the identical vectors: they are drawn before the queries, so q does not
// change them.
func loadCorpus(n, q, scored int) (*corpus, error) {
	ds, err := e2lshos.GeneratePaperDataset(e2lshos.SIFT, 0, n, q)
	if err != nil {
		return nil, err
	}
	if scored > q {
		scored = q
	}
	sub := &e2lshos.Dataset{Name: ds.Name, Dim: ds.Dim, Values: ds.Values, Vectors: ds.Vectors, Queries: ds.Queries[:scored]}
	return &corpus{ds: ds, truth: e2lshos.GroundTruth(sub, k)}, nil
}

// accuracy scores answer against query qi's exact top-k; ok is false for
// queries beyond the scored prefix.
func (c *corpus) accuracy(qi int, got []neighbor) (ratio, recall float64, ok bool) {
	if qi >= len(c.truth) {
		return 0, 0, false
	}
	res := toResult(got)
	return e2lshos.OverallRatio(res, c.truth[qi], k), e2lshos.Recall(res, c.truth[qi], k), true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}
