package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// lshload -compare A.jsonl B.jsonl: the tool the repeat acceptance check and
// later PRs use. A is the baseline, B the candidate; each file holds the
// -out lines of one set of runs.

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default, exclusive method), which
// is what the driver's acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = sorted(xs)
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		d := float64(i*m - j*4)
		return (xs[j-1]*(4-d) + xs[j]*d) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// readRuns loads an -out file: workload → metric → one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out, sc.Err()
}

// verdict compares one metric: worse is how much worse (as a share of a's
// median) b's median is in the metric's own direction.
func verdict(d metricDef, a, b []float64) (worse float64, status string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "BREACH"
	}
	return worse, "ok"
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readRuns(pathA)
	b, errB := readRuns(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "lshload: %v\n", err)
		return 2
	}
	return compareRuns(a, b, stdout)
}

func compareRuns(a, b map[string]map[string][]float64, w io.Writer) int {
	breaches := 0
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		fmt.Fprintf(w, "== %s\n  %-22s %12s %12s %9s %8s %8s %8s  %s\n", wl.Name,
			"metric", "A median", "B median", "B worse", "bound", "A spread", "B spread", "verdict")
		for _, d := range endToEnd {
			va, vb := ra[d.Name], rb[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, status := verdict(d, va, vb)
			if status == "BREACH" {
				breaches++
			}
			fmt.Fprintf(w, "  %-22s %12.4f %12.4f %8.2f%% %7.1f%% %7.2f%% %7.2f%%  %s (%d vs %d runs)\n",
				d.Name, median(va), median(vb), 100*worse, 100*d.Bound, 100*spread(va), 100*spread(vb), status, len(va), len(vb))
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d metric(s) worse than their bound\n", breaches)
		return 1
	}
	return 0
}
