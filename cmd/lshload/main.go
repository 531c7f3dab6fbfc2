// Command lshload is the repo's benchmark: four named workloads against a
// real lshserve child and the file-backed facade, every answer checked, every
// metric printed by name with unit, direction and regression bound.
//
//	go run ./cmd/lshload -seed 1                       # all four workloads
//	go run ./cmd/lshload -seed 1 -workload serve-hot   # one
//	go run ./cmd/lshload -seed 1 -trace 1              # plus the per-layer tables and trace.jsonl
//	go run ./cmd/lshload -compare A.jsonl B.jsonl      # two sets of -out runs
//
// It changes no product file: it drives the shipped binary over loopback
// HTTP and the root package's public API, and times layers from outside. See
// README.md in this directory for the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main without the exit, so the smoke test can call it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lshload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload: serve-read, serve-hot, serve-mixed-wal or lib-file-batch (default: all four)")
		seed     = fs.Int64("seed", 1, "drives query order, Zipf draws, insert vectors and the write schedule; never the database")
		seconds  = fs.Float64("seconds", 15, "timed seconds per workload, split across its phases (60 gives the 30 s phases the README describes)")
		trace    = fs.Int("trace", 0, "1 = also run the traced pass and the leaf timings, print the per-layer tables and write spans to -tracefile")
		traceOut = fs.String("tracefile", "trace.jsonl", "where -trace 1 writes its spans")
		out      = fs.String("out", "", "append one JSON line per workload run to this file, for -compare")
		smoke    = fs.Bool("smoke", false, "n=2000 and 1 s phases: exercises all the code in seconds, measures nothing")
		strict   = fs.Bool("strict", false, "exit non-zero when a per-layer metric is missing (a refactor broke cmd/lshload/layers)")
		compare  = fs.Bool("compare", false, "compare two -out files: lshload -compare A.jsonl B.jsonl")
		serveBin = fs.String("lshserve", "", "prebuilt lshserve binary (default: go build ./cmd/lshserve into a temp dir)")
		layerBin = fs.String("layers", "", "prebuilt cmd/lshload/layers binary (default: go build it into a temp dir)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "lshload: -compare needs two -out files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "lshload: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "lshload: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *smoke {
		*seconds = 3
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "lshload: -seconds must be positive")
		return 2
	}

	tmp, err := os.MkdirTemp("", "lshload-*")
	if err != nil {
		fmt.Fprintf(stderr, "lshload: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o := &options{
		Seed: *seed, Seconds: *seconds, Smoke: *smoke, Trace: *trace != 0, Strict: *strict,
		LshserveBin: *serveBin, LayersBin: *layerBin, TmpDir: tmp, TracePath: *traceOut, Log: stdout,
	}
	fail := func(err error) int {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "lshload: interrupted; children stopped, temp files removed")
		} else {
			fmt.Fprintf(stderr, "lshload: %v\n", err)
		}
		return 1
	}

	needChild := false
	for _, w := range selected {
		needChild = needChild || strings.HasPrefix(w.Name, "serve-")
	}
	if needChild && o.LshserveBin == "" {
		if o.LshserveBin, err = buildBinary(ctx, "e2lshos/cmd/lshserve", tmp); err != nil {
			return fail(err)
		}
	}
	var leaf map[string]float64
	var leafErr error
	if o.Trace {
		if err := os.Remove(o.TracePath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fail(err)
		}
		leaf, leafErr = runLayers(ctx, o)
		if leafErr != nil {
			o.logf("source C unavailable: %v\n  (end-to-end metrics are unaffected; the leaf metrics below are listed as missing)\n", leafErr)
		}
	}

	code := 0
	for _, w := range selected {
		o.logf("== %s (seed %d, %.0f s timed, trace %v)\n   why: %s\n", w.Name, o.Seed, o.Seconds, o.Trace, w.Why)
		res, err := w.Run(ctx, o)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		for name, v := range leaf {
			res.set(name, v)
		}
		line := report(res, o)
		if !line.Correct || (o.Strict && len(res.Missing) > 0) {
			code = 1
		}
		if *out != "" {
			if err := appendJSONLine(*out, res); err != nil {
				return fail(err)
			}
		}
		b, _ := json.Marshal(line)
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return code
}

// runLayers builds (unless prebuilt) and runs cmd/lshload/layers, source C.
func runLayers(ctx context.Context, o *options) (map[string]float64, error) {
	bin := o.LayersBin
	if bin == "" {
		var err error
		if bin, err = buildBinary(ctx, "e2lshos/cmd/lshload/layers", o.TmpDir); err != nil {
			return nil, err
		}
	}
	b, err := exec.CommandContext(ctx, bin).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return nil, fmt.Errorf("%s: %v: %s", bin, err, ee.Stderr)
		}
		return nil, err
	}
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", bin, err)
	}
	return m, nil
}

// notApplicable lists, per workload, the per-layer metrics that workload has
// no such layer for; they are reported as 0, not as missing.
var notApplicable = map[string][]string{
	"serve-read": {"serve.search_p99_readonly_ms", "ioengine.op_us", "ioengine.ops_per_query", "ioengine.coalesced_per_query",
		"ioengine.deduped_per_query", "ioengine.physical_ops_per_query", "blockcache.hit_ratio",
		"diskindex.save_s", "diskindex.open_s", "diskindex.checkpoint_s", "diskindex.insert_us", "diskindex.delete_us",
		"diskindex.scaling_exponent", "diskindex.index_bytes_per_vector_byte",
		"wal.insert_p50_ms", "wal.recover_s", "wal.commit_us", "wal.appends_per_insert", "wal.read_stall_factor"},
	"serve-hot": {"serve.search_p99_readonly_ms", "shard.scatter_self_us", "shard.skew_us",
		"diskindex.save_s", "diskindex.open_s", "diskindex.checkpoint_s",
		"diskindex.scaling_exponent", "diskindex.index_bytes_per_vector_byte",
		"wal.insert_p50_ms", "wal.recover_s", "wal.commit_us", "wal.appends_per_insert", "wal.read_stall_factor"},
	"serve-mixed-wal": {"shard.scatter_self_us", "shard.skew_us", "ioengine.op_us", "ioengine.ops_per_query",
		"ioengine.coalesced_per_query", "ioengine.deduped_per_query", "ioengine.physical_ops_per_query", "blockcache.hit_ratio",
		"diskindex.save_s", "diskindex.open_s", "diskindex.scaling_exponent", "diskindex.index_bytes_per_vector_byte"},
	"lib-file-batch": {"serve.search_p99_readonly_ms", "serve.failed_share", "serve.net_us", "serve.handler_self_us",
		"serve.request_bytes", "serve.response_bytes", "serve.slo_miss_share", "serve.shed_share",
		"serve.gen_lateness_p99_ms", "serve.residual_us", "coalesce.wait_us", "shard.wait_us",
		"shard.scatter_self_us", "shard.skew_us", "ioengine.op_us", "blockcache.hit_ratio",
		"blockcache.prefetched_per_query", "diskindex.checkpoint_s",
		"wal.insert_p50_ms", "wal.recover_s", "wal.commit_us", "wal.appends_per_insert", "wal.read_stall_factor"},
}

// report prints the run for a reader and returns the contract's result line:
// the end-to-end metrics with tracing off, the per-layer ones with it on.
func report(res *runResult, o *options) resultLine {
	defs := endToEnd
	if o.Trace {
		defs = perLayer
		for _, name := range notApplicable[res.Workload] {
			if _, ok := res.Metrics[name]; !ok {
				res.Metrics[name] = 0
			}
		}
	}
	for _, n := range res.notes {
		o.logf("  note: %s\n", n)
	}
	o.logf("  %-38s %14s %-7s %-7s %s\n", "end-to-end metric", "value", "unit", "better", "bound")
	for _, d := range endToEnd {
		o.logf("  %-38s %14.4f %-7s %-7s %.1f%%\n", d.Name, res.Metrics[d.Name], d.Unit, d.Better, 100*d.Bound)
	}
	if o.Trace {
		o.logf("  %-38s %14s %-7s %s\n", "per-layer metric", "value", "unit", "better")
		for _, d := range perLayer {
			if v, ok := res.Metrics[d.Name]; ok {
				o.logf("  %-38s %14.4f %-7s %s\n", d.Name, v, d.Unit, d.Better)
			}
		}
	}
	metrics, missing := pick(defs, res.Metrics)
	res.Missing = missing
	if len(missing) > 0 {
		o.logf("  missing metrics (reported as 0): %s\n", strings.Join(missing, ", "))
	}
	o.logf("  operations: %d attempted, %d failed (failed_share %.6f); failed checks: %s\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failures)
	return resultLine{Correct: res.Failed == 0, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: metrics}
}

func appendJSONLine(path string, v any) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
