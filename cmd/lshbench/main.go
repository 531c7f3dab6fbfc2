// Command lshbench reproduces the paper's tables and figures.
//
// Usage:
//
//	lshbench -exp table4                 # one experiment
//	lshbench -exp fig11,fig12           # several
//	lshbench -exp all -scale 0.05       # everything, larger clones
//
// Each experiment prints the same rows/series the paper reports; DESIGN.md
// maps experiment ids to paper artifacts.
//
// Profiling (the Fig 12-style CPU decomposition measured for real):
//
//	lshbench -exp fig12 -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"e2lshos/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// options are the command's flags.
type options struct {
	exp, cpuProfile, memProfile string
	scale                       float64
	maxN, queries               int
	seed                        int64
	list                        bool
}

func parseFlags(args []string) (*options, error) {
	var o options
	fs := flag.NewFlagSet("lshbench", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "", "experiment id(s), comma separated, or 'all'")
	fs.Float64Var(&o.scale, "scale", 0.02, "fraction of the paper's dataset sizes")
	fs.IntVar(&o.maxN, "maxn", 64000, "cap on per-dataset object count")
	fs.IntVar(&o.queries, "queries", 40, "queries per dataset")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the experiment run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile (after the run) to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return &o, nil
}

// env returns a fresh harness environment for one experiment: the harness
// defaults with every nonzero flag applied, and MinN clamped to a -maxn
// below it.
func (o *options) env() *experiments.Env {
	env := experiments.DefaultEnv()
	if o.scale != 0 {
		env.Scale = o.scale
	}
	if o.maxN != 0 {
		env.MaxN = o.maxN
		env.MinN = min(env.MinN, env.MaxN)
	}
	if o.queries != 0 {
		env.Queries = o.queries
	}
	if o.seed != 0 {
		env.Seed = o.seed
	}
	return env
}

// run carries the whole command so deferred profile writers always flush —
// os.Exit in main would skip them and truncate -cpuprofile output.
func run(args []string, stdout io.Writer) int {
	o, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	if o.list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if o.exp == "" {
		fmt.Fprintln(os.Stderr, "lshbench: -exp is required (use -list to see ids)")
		return 2
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lshbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lshbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		// Deferred so the heap profile covers whatever ran, even when an
		// experiment fails partway through an -exp list.
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lshbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "lshbench: -memprofile: %v\n", err)
			}
		}()
	}
	ids := strings.Split(o.exp, ",")
	if o.exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		start := time.Now()
		if _, err := experiments.Run(o.env(), id, stdout); err != nil {
			fmt.Fprintf(os.Stderr, "lshbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
