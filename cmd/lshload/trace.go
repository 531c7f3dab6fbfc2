package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run's span recorder. Spans are recorded only from this
// directory's own files, around the calls into each layer; they are kept in
// memory and written out when the run ends. One request is in flight at a
// time, so a span's parent is simply the span currently open in the layer
// above it.

// span is one timed call into a layer.
type span struct {
	ID      int32            `json:"id"`
	Parent  int32            `json:"parent"`
	Request int32            `json:"request"`
	Layer   string           `json:"layer"`
	Name    string           `json:"name"`
	Start   int64            `json:"start_ns"`
	End     int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// The layers the traced run records, outermost first.
const (
	layerClient  = "client"
	layerServe   = "serve"
	layerEngine  = "engine"
	layerShard   = "shard"
	layerBackend = "backend"
)

type recorder struct {
	epoch   time.Time
	on      atomic.Bool  // spans are kept only while set (not during warm-up)
	request atomic.Int32 // the one request in flight
	nextID  atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64         { return int64(time.Since(r.epoch)) }
func (r *recorder) newID() int32       { return r.nextID.Add(1) }
func (r *recorder) beginRequest(n int) { r.request.Store(int32(n)) }

// open starts a span under parent; the caller fills End (and Counts) and
// hands it to record.
func (r *recorder) open(layer, name string, parent int32) span {
	return span{ID: r.newID(), Parent: parent, Request: r.request.Load(), Layer: layer, Name: name, Start: r.now()}
}

func (r *recorder) record(s span) {
	if s.End == 0 {
		s.End = r.now()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// cursor is the span currently open in one layer: what the layer below
// records as its parent.
type cursor struct{ cur atomic.Int32 }

// enter opens a span in this layer under parent and makes it current; the
// returned func closes it.
func (c *cursor) enter(r *recorder, layer, name string, parent int32) func(counts map[string]int64) {
	if !r.on.Load() {
		return func(map[string]int64) {}
	}
	s := r.open(layer, name, parent)
	c.cur.Store(s.ID)
	return func(counts map[string]int64) {
		c.cur.Store(0)
		s.Counts = counts
		r.record(s)
	}
}

// union returns the total length of the union of [start,end) intervals
// clipped to [lo,hi).
func union(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if curHi < curLo || a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerTable is the traced run's per-workload result: mean self time per
// request and layer along the blocking path, the counts, and the residual.
type layerTable struct {
	Requests int
	// SelfUS is the mean self time per request, by layer: the span's
	// duration minus the part its child spans cover. Where children run in
	// parallel (the shards of one scatter) the slowest one is on the blocking
	// path and only it, and its children, are charged.
	SelfUS map[string]float64
	// ClientUS is the mean client span.
	ClientUS float64
	// ResidualUS is ClientUS minus the sum of SelfUS: time the blocking-path
	// rule could not place (parallel children that did not start together).
	ResidualUS float64
	// ScatterSelfUS is the engine span minus its slowest shard; SkewUS is
	// slowest minus fastest shard. Zero without shards.
	ScatterSelfUS, SkewUS float64
	// Counts are per-request means of the spans' counts, keyed layer.name.
	Counts map[string]float64
	// ClientP50MS is the median client span, for the tracing overhead.
	ClientP50MS float64
}

// analyze computes the layer table over the search requests among spans.
// backendOps are the backend layer's reads, kept apart because there are
// hundreds per request.
func analyze(spans []span, backendOps []opSpan) layerTable {
	children := map[int32][]int{}
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	opsByParent := map[int32][]opSpan{}
	for _, op := range backendOps {
		opsByParent[op.Parent] = append(opsByParent[op.Parent], op)
	}
	t := layerTable{SelfUS: map[string]float64{}, Counts: map[string]float64{}}
	var clientNS []float64
	var selfNS = map[string]int64{}
	var scatter, skew int64
	var walk func(i int)
	walk = func(i int) {
		s := spans[i]
		var covered [][2]int64
		kids := children[s.ID]
		// Parallel siblings: only the slowest shard is on the blocking path.
		var slowest, fastest = -1, -1
		for _, k := range kids {
			if spans[k].Layer != layerShard {
				continue
			}
			if slowest < 0 || spans[k].dur() > spans[slowest].dur() {
				slowest = k
			}
			if fastest < 0 || spans[k].dur() < spans[fastest].dur() {
				fastest = k
			}
		}
		if slowest >= 0 {
			scatter += s.dur() - spans[slowest].dur()
			skew += spans[slowest].dur() - spans[fastest].dur()
		}
		for _, k := range kids {
			covered = append(covered, [2]int64{spans[k].Start, spans[k].End})
			if spans[k].Layer == layerShard && k != slowest {
				continue
			}
			walk(k)
		}
		ops := opsByParent[s.ID]
		if len(ops) > 0 {
			var iv [][2]int64
			var blocks int64
			for _, op := range ops {
				iv = append(iv, [2]int64{op.Start, op.End})
				blocks += int64(op.Blocks)
			}
			busy := union(iv, s.Start, s.End)
			selfNS[layerBackend] += busy
			covered = append(covered, iv...)
			t.Counts["backend.reads"] += float64(len(ops))
			t.Counts["backend.blocks"] += float64(blocks)
		}
		selfNS[s.Layer] += s.dur() - union(covered, s.Start, s.End)
		for k, v := range s.Counts {
			t.Counts[s.Layer+"."+k] += float64(v)
		}
	}
	for i, s := range spans {
		if s.Layer != layerClient || s.Name != "search" {
			continue
		}
		t.Requests++
		clientNS = append(clientNS, float64(s.dur()))
		walk(i)
	}
	if t.Requests == 0 {
		return t
	}
	n := float64(t.Requests)
	var sum float64
	for layer, ns := range selfNS {
		t.SelfUS[layer] = float64(ns) / n / 1e3
		sum += t.SelfUS[layer]
	}
	t.ClientUS = mean(clientNS) / 1e3
	t.ResidualUS = t.ClientUS - sum
	t.ScatterSelfUS = float64(scatter) / n / 1e3
	t.SkewUS = float64(skew) / n / 1e3
	for k := range t.Counts {
		t.Counts[k] /= n
	}
	t.ClientP50MS = median(clientNS) / 1e6
	return t
}

func (t layerTable) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "  traced run, %s: %d search requests, one in flight\n", workload, t.Requests)
	fmt.Fprintf(w, "    %-10s %12s\n", "layer", "self us/req")
	for _, layer := range []string{layerClient, layerServe, layerEngine, layerShard, layerBackend} {
		if v, ok := t.SelfUS[layer]; ok {
			fmt.Fprintf(w, "    %-10s %12.1f\n", layer, v)
		}
	}
	fmt.Fprintf(w, "    %-10s %12.1f   (client span %.1f us; residual %.1f%%)\n",
		"residual", t.ResidualUS, t.ClientUS, 100*t.ResidualUS/t.ClientUS)
	for _, k := range sortedKeys(t.Counts) {
		fmt.Fprintf(w, "    count %-28s %12.2f /req\n", k, t.Counts[k])
	}
}

// backendSpanDetail is how many requests keep one trace.jsonl line per
// backend read; later requests fold their reads into one line per parent.
const backendSpanDetail = 50

// writeTrace appends the workload's spans to w as JSON lines.
func writeTrace(w io.Writer, workload string, spans []span, backendOps []opSpan, rec *recorder) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	type line struct {
		Workload string `json:"workload"`
		span
	}
	reqOf := map[int32]int32{}
	for _, s := range spans {
		reqOf[s.ID] = s.Request
		if err := enc.Encode(line{workload, s}); err != nil {
			return err
		}
	}
	folded := map[int32]*span{}
	var order []int32
	for _, op := range backendOps {
		req := reqOf[op.Parent]
		if op.Parent != 0 && req <= backendSpanDetail {
			s := span{ID: rec.newID(), Parent: op.Parent, Request: req, Layer: layerBackend, Name: "read",
				Start: op.Start, End: op.End, Counts: map[string]int64{"blocks": int64(op.Blocks)}}
			if err := enc.Encode(line{workload, s}); err != nil {
				return err
			}
			continue
		}
		f := folded[op.Parent]
		if f == nil {
			f = &span{ID: rec.newID(), Parent: op.Parent, Request: req, Layer: layerBackend, Name: "reads-folded",
				Start: op.Start, End: op.End, Counts: map[string]int64{}}
			folded[op.Parent] = f
			order = append(order, op.Parent)
		}
		f.Start, f.End = min(f.Start, op.Start), max(f.End, op.End)
		f.Counts["reads"]++
		f.Counts["blocks"] += int64(op.Blocks)
		f.Counts["busy_ns"] += op.End - op.Start
	}
	for _, p := range order {
		if err := enc.Encode(line{workload, *folded[p]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendTraceFile writes one workload's spans to the end of path.
func appendTraceFile(path, workload string, spans []span, backendOps []opSpan, rec *recorder) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := writeTrace(f, workload, spans, backendOps, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
