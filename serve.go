package e2lshos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"e2lshos/internal/coalesce"
	"e2lshos/internal/ladder"
	"e2lshos/internal/telemetry"
)

// breakerWindow is how many recent request outcomes the readiness circuit
// breaker looks at; breakerMinSamples and breakerTripRate are when it trips.
// Sized so one bad batch (a poisoned query panicking its coalesced batch)
// cannot flip readiness, but a dying disk — every query failing — trips it
// within one window.
const (
	breakerWindow     = 64
	breakerMinSamples = 16
	breakerTripRate   = 0.5
)

// ServerConfig tunes the HTTP serving front-end.
type ServerConfig struct {
	// Dim is the query dimensionality; requests with another length are
	// rejected with 400. Required.
	Dim int
	// K is the top-k every coalesced batch searches for (default 1).
	// Requests may ask for fewer neighbors; they get a prefix.
	K int
	// MaxBatch and MaxQueue are the query coalescer knobs; see the coalesce
	// package. Shed load surfaces as 429 with Retry-After.
	MaxBatch int
	MaxQueue int
	// MaxDelay, when positive, holds an unsharded engine's lone query for
	// company that long before its batch is cut; zero (the default) never
	// holds, and sharded engines never hold. The hold buys no throughput: it
	// is kept only for the benchmark's traced path, which still sets it.
	MaxDelay time.Duration
	// Opts are the server's defaults for every query (WithK(K) is implied):
	// /v1/search requests can override the budget, multi-probe and any part of
	// the SLO contract (WithTuning; needs EnableAutotune on the engine to have
	// effect) per request.
	Opts []SearchOption
	// Exact optionally holds ground-truth results for a held-out query set.
	// A request carrying "qid": i is scored against Exact[i] with the
	// facade's Recall / OverallRatio metrics and /stats reports the running
	// means — shadow scoring for serving experiments. Scored recalls also
	// feed the autotuner's guardrail margin when the request carried a
	// recall target.
	Exact []Result
	// Pprof mounts net/http/pprof's profiling handlers under /debug/pprof/.
	// Off by default: profiling endpoints on a query port are a foot-gun
	// unless deliberately enabled.
	Pprof bool
}

// searchQuery is what one /v1/search request queues: its vector and what it
// asked for — the server's knobs with the request's overrides applied.
type searchQuery struct {
	vec []float32
	kn  ladder.Knobs
}

// searchOutcome is one query's slot of a coalesced batch: its result plus
// its individual Stats (the per-query WithStatsInto row), so the v1 envelope
// can report what the controller did to exactly this query.
type searchOutcome struct {
	res Result
	st  Stats
}

// Server is the serving front-end: an Engine behind a query coalescer with
// JSON endpoints /v1/search (per-request tuning), /stats, /metrics, /healthz
// and /readyz. A request that finds an execution slot free runs as a
// BatchSearch of its own at once; requests that arrive while every slot is
// busy ride together in the next batch, whatever each asked for, so batches
// form under load. The server keeps no state per knob value: a request copies
// base's knobs, overrides them from its own fields, and the copy travels with
// the query.
type Server struct {
	eng     Engine
	cfg     ServerConfig
	batcher *coalesce.Batcher[searchQuery, searchOutcome]
	base    searchSettings // WithK(cfg.K) + cfg.Opts, resolved at construction
	start   time.Time
	ios     freeList[*searchIO]
	args    freeList[*batchArgs]

	// lat and wait are always on (one atomic add per request): end-to-end
	// HTTP request latency and per-query coalescer queue wait. They back
	// /metrics' p50/p99/p999 regardless of engine-side telemetry.
	lat  *telemetry.Histogram
	wait *telemetry.Histogram

	mu        sync.Mutex
	agg       Stats   //lsh:guardedby mu
	served    uint64  //lsh:guardedby mu
	failed    uint64  //lsh:guardedby mu
	inserts   uint64  //lsh:guardedby mu — /v1/insert acks
	deletes   uint64  //lsh:guardedby mu — /v1/object DELETE acks
	canceled  uint64  //lsh:guardedby mu
	degraded  uint64  //lsh:guardedby mu — served, but the controller degraded them
	panics    uint64  //lsh:guardedby mu — panics recovered in HTTP handlers
	scored    int     //lsh:guardedby mu
	recallSum float64 //lsh:guardedby mu
	ratioSum  float64 //lsh:guardedby mu

	// The readiness circuit breaker's ring of recent outcomes: 1 marks an
	// engine-side failure (not client cancellations, not shed load). When
	// the windowed failure rate crosses breakerTripRate, /readyz turns 503
	// so load balancers drain this replica before clients burn retries on it.
	outcomes   [breakerWindow]byte //lsh:guardedby mu
	outcomeIdx int                 //lsh:guardedby mu
	outcomeN   int                 //lsh:guardedby mu — filled entries, ≤ breakerWindow
	outcomeBad int                 //lsh:guardedby mu — failures currently in the ring
}

// NewServer wraps eng for serving. Close releases the coalescer.
func NewServer(eng Engine, cfg ServerConfig) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("e2lshos: NewServer needs an engine")
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("e2lshos: ServerConfig.Dim must be positive, got %d", cfg.Dim)
	}
	if cfg.K <= 0 {
		cfg.K = 1
	}
	s := &Server{
		eng: eng, cfg: cfg, start: time.Now(),
		lat:  new(telemetry.Histogram),
		wait: new(telemetry.Histogram),
	}
	// Resolving here also validates cfg.Opts at construction, not at the
	// first request.
	var err error
	s.base, err = resolveSettings(append([]SearchOption{WithK(cfg.K)}, cfg.Opts...), 0)
	if err != nil {
		return nil, err
	}
	slots, hold := admission(eng, cfg.MaxDelay)
	s.batcher = coalesce.New(s.runBatch, coalesce.Config{
		MaxBatch: cfg.MaxBatch, MaxQueue: cfg.MaxQueue, MaxDelay: hold, Slots: slots,
		ObserveWait: s.wait.Observe,
	})
	return s, nil
}

// admission sizes the coalescer for eng: how many batches it can run side by
// side, and how long a lone query is held for company. A lone query occupies
// as many processors as the engine has shards, so a sharded engine (a shard
// router) gets the processors divided by its shards (at least one slot) and
// never holds; an unsharded one — a StorageIndex split into hash partitions
// included, whose partitions share one goroutine — gets a slot per processor
// and holds only for a positive maxDelay.
func admission(eng Engine, maxDelay time.Duration) (slots int, hold time.Duration) {
	procs := runtime.GOMAXPROCS(0)
	if sh, ok := eng.(interface{ Shards() int }); ok && sh.Shards() > 1 {
		return max(procs/sh.Shards(), 1), 0
	}
	return procs, max(maxDelay, 0)
}

// batchArgs is what one coalesced batch hands the engine, reused across
// batches (nothing reads it once BatchSearch has returned): the vectors, the
// server's settings with each query's knobs and stats row, and the one option
// that carries those settings down as a value.
type batchArgs struct {
	vecs [][]float32
	set  searchSettings
	opt  [1]SearchOption
}

// runBatch executes one coalesced batch against the engine.
func (s *Server) runBatch(ctx context.Context, qs []searchQuery) ([]searchOutcome, error) {
	a := s.args.take()
	if a == nil {
		a = &batchArgs{set: s.base}
		a.opt[0] = withSettings(&a.set)
	}
	set := &a.set
	a.vecs, set.each, set.statsInto = a.vecs[:0], set.each[:0], set.statsInto[:0]
	for _, q := range qs {
		a.vecs = append(a.vecs, q.vec)
		set.each = append(set.each, q.kn)
		set.statsInto = append(set.statsInto, Stats{})
	}
	results, st, err := s.eng.BatchSearch(ctx, a.vecs, a.opt[:]...)
	s.mu.Lock()
	s.agg.Merge(st)
	s.mu.Unlock()
	var out []searchOutcome
	if err == nil {
		out = make([]searchOutcome, len(results))
		for i := range results {
			out[i] = searchOutcome{res: results[i], st: set.statsInto[i]}
		}
	}
	clear(a.vecs) // the vectors are their requests', not the free list's
	s.args.give(a)
	return out, err
}

// Close flushes and stops the coalescer; pending requests complete first.
func (s *Server) Close() { s.batcher.Close() }

// Stats returns the cumulative Stats of everything served so far.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agg
}

// searchRequestV1 is the /v1/search body: the query plus per-request
// execution knobs and an SLO contract. Every knob is optional; omitted knobs
// inherit the server's configuration.
type searchRequestV1 struct {
	Query []float32 `json:"query"`
	// K asks for the first K neighbors of the server's top-K.
	K int `json:"k,omitempty"`
	// QID marks the query as held-out query i for shadow scoring.
	QID *int `json:"qid,omitempty"`
	// MultiProbe overrides the perturbation count; an explicit 0 disables
	// multi-probe even when the server default enables it.
	MultiProbe *int `json:"multiprobe,omitempty"`
	// Budget overrides the per-radius verified-candidate cap.
	Budget int `json:"budget,omitempty"`
	// RecallTarget in (0,1) stops the radius ladder early once the engine
	// estimates the target recall is met. Requires EnableAutotune.
	RecallTarget float64 `json:"recall_target,omitempty"`
	// LatencyBudgetMS bounds the query's wall time in milliseconds; the
	// controller degrades knobs (or stops, per Degrade) to stay inside it.
	LatencyBudgetMS float64 `json:"latency_budget_ms,omitempty"`
	// Degrade selects the out-of-budget behavior: "knobs" or "stop".
	Degrade string `json:"degrade,omitempty"`
}

// searchNeighbor is one neighbor in a search response.
type searchNeighbor struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
}

// searchStatsV1 is the per-query work summary in a /v1/search envelope.
type searchStatsV1 struct {
	Radii         int `json:"radii"`
	Probes        int `json:"probes"`
	Checked       int `json:"checked"`
	NIO           int `json:"n_io"`
	CacheHits     int `json:"cache_hits"`
	CacheMisses   int `json:"cache_misses"`
	PhysicalReads int `json:"physical_reads"`
	// FaultedReads and SkippedChains report degraded-mode work: block reads
	// that failed after retries and the bucket chains skipped because of
	// them (see the envelope's top-level "partial").
	FaultedReads  int `json:"faulted_reads,omitempty"`
	SkippedChains int `json:"skipped_chains,omitempty"`
}

// controllerV1 reports what the autotune controller did to this query (all
// zero without EnableAutotune or an SLO contract).
type controllerV1 struct {
	// RoundsSkipped is how many ladder rounds the controller cut relative
	// to the full schedule.
	RoundsSkipped int `json:"rounds_skipped"`
	// BudgetExhausted reports a latency-budget stop.
	BudgetExhausted bool `json:"budget_exhausted"`
	// DegradedKnobs counts mid-query knob-degradation steps.
	DegradedKnobs int `json:"degraded_knobs"`
}

// searchResponseV1 is the /v1/search envelope.
type searchResponseV1 struct {
	Neighbors []searchNeighbor `json:"neighbors"`
	K         int              `json:"k"`
	// Partial reports that storage faults made the engine skip part of the
	// index for this query: the neighbors are correct but possibly
	// incomplete. Healthy serving always answers false.
	Partial    bool          `json:"partial"`
	Stats      searchStatsV1 `json:"stats"`
	Controller controllerV1  `json:"controller"`
}

// searchIO is one /v1/search request's reusable state: the body bytes, the
// decoded request and the response envelope with its neighbor backing. A
// handler checks one out of the server's free list and hands it back when it
// returns. The query vector's backing array is not part of it: the engine
// may still be reading a query after its caller has gone (an abandoned
// request), so each request's vector is its own, allocated at its final size.
type searchIO struct {
	body bytes.Buffer
	req  searchRequestV1
	resp searchResponseV1
}

// maxPooledBody is the largest body buffer a searchIO may keep when it goes
// back to the free list, so one oversized request does not pin its size in
// memory for the life of the server (a 128-d query is about 1 KB of JSON).
const maxPooledBody = 64 << 10

// readJSON reads a request body of at most maxBody bytes into buf and decodes
// it into v as exactly one JSON value, reporting whether the request may
// proceed: a longer body answers 413 without being read to its end, anything
// else that does not decode — trailing bytes included — 400.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, v any) bool {
	// A vector is at most 32 bytes of JSON per coordinate (a float32 prints
	// in under 16), plus the other fields.
	maxBody := int64(max(maxPooledBody, 32*s.cfg.Dim+4<<10))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), v)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request body: %v", err), status)
		return false
	}
	return true
}

// statsResponse is the /stats reply: the cumulative Stats counters under
// their own wire names (the paper's analysis units; the embedded struct's
// json tags are the keys), the derived N_IO and per-query means, plus
// serving-level counters and, when shadow scoring is on, the running
// accuracy means. With a cache, cache_misses is the effective N_IO that
// reached the backend; n_io stays the logical count.
type statsResponse struct {
	Stats
	NIO         int     `json:"n_io"`
	MeanIOs     float64 `json:"mean_ios"`
	MeanRadii   float64 `json:"mean_radii"`
	MeanChecked float64 `json:"mean_checked"`
	Served      uint64  `json:"served"`
	Failed      uint64  `json:"failed"`
	Canceled    uint64  `json:"canceled"`
	Shed        uint64  `json:"shed"`
	Degraded    uint64  `json:"degraded"`
	// CoalesceBatches counts the batches the coalescer has cut; served +
	// failed queries over it is the mean batch size load has produced.
	CoalesceBatches uint64 `json:"coalesce_batches"`
	// Online-update counters: mutations acked through /v1/insert and
	// /v1/object, plus — when the engine is WAL-backed — its durability
	// state: the checkpoint generation, cumulative log appends, the records
	// replayed at the last open, and whether that open truncated a torn tail.
	Inserts       uint64 `json:"inserts"`
	Deletes       uint64 `json:"deletes"`
	WALGeneration uint64 `json:"wal_generation,omitempty"`
	WALAppends    int64  `json:"wal_appends,omitempty"`
	WALReplayed   int    `json:"wal_replayed,omitempty"`
	WALTornTail   bool   `json:"wal_torn_tail,omitempty"`
	// Panics counts recovered panics — batch functions and HTTP handlers —
	// that were converted to errors instead of crashes.
	Panics        uint64  `json:"panics"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Scored        int     `json:"scored,omitempty"`
	MeanRecall    float64 `json:"mean_recall,omitempty"`
	MeanRatio     float64 `json:"mean_ratio,omitempty"`
}

// Handler returns the HTTP API: POST /v1/search (per-request tuning), POST
// /v1/insert, DELETE /v1/object/{id}, GET /stats, GET /healthz (pure liveness), GET
// /readyz (storage probe + error-rate breaker), GET /metrics (Prometheus
// text exposition), and — when ServerConfig.Pprof is set — net/http/pprof
// under /debug/pprof/. Every route runs inside a panic-recovery wrapper
// that converts a handler panic into a 500 instead of a torn-down
// connection.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/search", s.handleSearchV1)
	mux.HandleFunc("/v1/insert", s.handleInsertV1)
	mux.HandleFunc("/v1/object/", s.handleObjectV1)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: the process is up and serving HTTP. Readiness —
		// whether it should receive traffic — is /readyz's question.
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("/readyz", s.handleReadyz)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.recoverPanics(mux)
}

// recoverPanics converts a panicking handler into a counted 500. net/http's
// own recovery would keep the process alive but kill the connection without
// a response; answering with a status keeps clients and the failure-rate
// breaker informed. Panics inside coalesced batch functions are recovered
// one layer down (coalesce.ErrPanic) and never reach here.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.mu.Lock()
				s.panics++
				s.failed++
				s.recordOutcomeLocked(true)
				s.mu.Unlock()
				// Best effort: if the handler already started the body this
				// write is a no-op on the status line, but the connection
				// still closes cleanly.
				http.Error(w, fmt.Sprintf("internal error: recovered panic: %v", rec), http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleReadyz is readiness: whether this replica should receive traffic
// right now. It answers 503 when the windowed failure rate has tripped the
// circuit breaker or when the engine's storage probe fails, both with a
// derived Retry-After — load balancers and orchestrators drain the replica
// instead of clients discovering the failure one request at a time.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	if rate, n, open := s.breakerState(); open {
		w.Header().Set("Retry-After", s.retryAfter())
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready":  false,
			"reason": fmt.Sprintf("circuit breaker open: %.0f%% of the last %d requests failed", rate*100, n),
		})
		return
	}
	if p, ok := s.eng.(interface{ ProbeStorage() error }); ok {
		if err := p.ProbeStorage(); err != nil {
			w.Header().Set("Retry-After", s.retryAfter())
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"ready":  false,
				"reason": err.Error(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// checkCommon validates the fields shared by both request versions,
// reporting whether the request may proceed.
func (s *Server) checkCommon(w http.ResponseWriter, query []float32, k int) bool {
	if len(query) != s.cfg.Dim {
		http.Error(w, fmt.Sprintf("query has %d dimensions, index has %d", len(query), s.cfg.Dim), http.StatusBadRequest)
		return false
	}
	if k < 0 || k > s.cfg.K {
		http.Error(w, fmt.Sprintf("k must be omitted (server default %d) or in [1,%d]", s.cfg.K, s.cfg.K), http.StatusBadRequest)
		return false
	}
	return true
}

// recordOutcomeLocked pushes one request outcome into the breaker ring.
// Caller holds s.mu.
func (s *Server) recordOutcomeLocked(failed bool) {
	if s.outcomeN == breakerWindow {
		s.outcomeBad -= int(s.outcomes[s.outcomeIdx])
	} else {
		s.outcomeN++
	}
	s.outcomes[s.outcomeIdx] = 0
	if failed {
		s.outcomes[s.outcomeIdx] = 1
		s.outcomeBad++
	}
	s.outcomeIdx = (s.outcomeIdx + 1) % breakerWindow
}

// breakerState reports the windowed failure rate, the sample count behind
// it, and whether the breaker is open (tripped).
func (s *Server) breakerState() (rate float64, n int, open bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.outcomeN == 0 {
		return 0, 0, false
	}
	rate = float64(s.outcomeBad) / float64(s.outcomeN)
	return rate, s.outcomeN, s.outcomeN >= breakerMinSamples && rate >= breakerTripRate
}

// retryAfter derives the Retry-After seconds a backpressured client should
// wait: the time for the admitted queue to drain at the observed p99 batch
// latency — its batches spread over the execution slots working it off —
// bounded to [1, 30] and then jittered up to 2× so the shed cohort does not
// return as one synchronized herd.
func (s *Server) retryAfter() string {
	inflight, _ := s.batcher.Load()
	var snap telemetry.HistSnapshot
	s.lat.Snapshot(&snap)
	p99 := snap.Quantile(0.99)
	if p99 <= 0 {
		p99 = 50 * time.Millisecond // no history yet: assume a fast engine
	}
	batches := inflight/s.batcher.MaxBatch() + 1
	slots := max(s.batcher.Executing(), 1)
	rounds := (batches + slots - 1) / slots
	secs := int((time.Duration(rounds)*p99 + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	secs += rand.IntN(secs + 1)
	return strconv.Itoa(secs)
}

// doSearch runs one admitted query through the coalescer, mapping errors to
// status codes; ok reports whether a response is still owed.
func (s *Server) doSearch(w http.ResponseWriter, r *http.Request, q searchQuery) (searchOutcome, bool) {
	t0 := time.Now()
	out, err := s.batcher.Do(r.Context(), q)
	s.lat.Observe(time.Since(t0))
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The client gave up, not the engine: count separately and use
			// nginx's 499 so /stats and logs keep disconnects apart from
			// real failures. Not a breaker outcome — client disconnects say
			// nothing about this replica's health.
			s.mu.Lock()
			s.canceled++
			s.mu.Unlock()
			http.Error(w, err.Error(), 499)
		case errors.Is(err, coalesce.ErrOverloaded):
			// Shed load is backpressure, not failure: 429 tells well-behaved
			// clients when to retry (sheds are counted by the coalescer,
			// separately from controller degrades). Overload is also not a
			// breaker outcome — it is the queue bound doing its job.
			s.mu.Lock()
			s.failed++
			s.mu.Unlock()
			w.Header().Set("Retry-After", s.retryAfter())
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.Is(err, coalesce.ErrClosed):
			s.mu.Lock()
			s.failed++
			s.recordOutcomeLocked(true)
			s.mu.Unlock()
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			s.mu.Lock()
			s.failed++
			s.recordOutcomeLocked(true)
			s.mu.Unlock()
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return searchOutcome{}, false
	}
	s.mu.Lock()
	s.served++
	s.recordOutcomeLocked(false)
	if out.st.DegradedKnobs > 0 || out.st.BudgetExhausted > 0 {
		s.degraded++
	}
	s.mu.Unlock()
	return out, true
}

// handleSearchV1 is the versioned search endpoint: per-request execution
// knobs and SLO contract, and a structured envelope with per-query stats and
// controller actions.
func (s *Server) handleSearchV1(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	sio := s.ios.take()
	if sio == nil {
		sio = new(searchIO)
	}
	defer func() {
		if sio.body.Cap() <= maxPooledBody {
			s.ios.give(sio)
		}
	}()
	sio.body.Reset()
	sio.req = searchRequestV1{Query: make([]float32, 0, s.cfg.Dim)}
	req := &sio.req
	if !s.readJSON(w, r, &sio.body, req) {
		return
	}
	if !s.checkCommon(w, req.Query, req.K) {
		return
	}
	// What this query asks for: the server's knobs, overridden by the fields
	// the request sets, validated as one value.
	kn := s.base.Knobs
	if req.MultiProbe != nil {
		kn.MultiProbe = *req.MultiProbe
	}
	if req.Budget != 0 {
		kn.Budget = req.Budget
	}
	if req.RecallTarget != 0 {
		kn.Tuning.RecallTarget = req.RecallTarget
	}
	if req.LatencyBudgetMS != 0 {
		ns := req.LatencyBudgetMS * float64(time.Millisecond)
		if math.Abs(ns) >= math.MaxInt64 {
			http.Error(w, fmt.Sprintf("latency_budget_ms %g does not fit a duration", req.LatencyBudgetMS), http.StatusBadRequest)
			return
		}
		kn.Tuning.LatencyBudget = time.Duration(ns)
	}
	if req.Degrade != "" {
		p, err := ParseDegradePolicy(req.Degrade)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		kn.Tuning.Degrade = p
	}
	if err := checkKnobs(kn); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out, ok := s.doSearch(w, r, searchQuery{vec: req.Query, kn: kn})
	if !ok {
		return
	}
	s.score(req.QID, out.res, kn.Tuning.RecallTarget)
	k := req.K
	if k == 0 {
		k = s.cfg.K
	}
	st := out.st
	sio.resp = searchResponseV1{
		K:         k,
		Neighbors: appendNeighbors(sio.resp.Neighbors[:0], out.res, k),
		Partial:   st.Partial > 0,
		Stats: searchStatsV1{
			Radii:         st.Radii,
			Probes:        st.Probes,
			Checked:       st.Checked,
			NIO:           st.IOs(),
			CacheHits:     st.CacheHits,
			CacheMisses:   st.CacheMisses,
			PhysicalReads: st.PhysicalReads,
			FaultedReads:  st.FaultedReads,
			SkippedChains: st.SkippedChains,
		},
		Controller: controllerV1{
			RoundsSkipped:   st.RoundsSkipped,
			BudgetExhausted: st.BudgetExhausted > 0,
			DegradedKnobs:   st.DegradedKnobs,
		},
	}
	writeJSON(w, http.StatusOK, &sio.resp)
}

// appendNeighbors appends the first k neighbors to dst in the wire shape.
func appendNeighbors(dst []searchNeighbor, res Result, k int) []searchNeighbor {
	for i, nb := range res.Neighbors {
		if i >= k {
			break
		}
		dst = append(dst, searchNeighbor{ID: nb.ID, Dist: nb.Dist})
	}
	return dst
}

// score folds one shadow-scored answer into the running accuracy means and,
// when the query carried a recall target, feeds the served recall into the
// autotuner's guardrail margin.
func (s *Server) score(qid *int, res Result, target float64) {
	if qid == nil || *qid < 0 || *qid >= len(s.cfg.Exact) {
		return
	}
	exact := s.cfg.Exact[*qid]
	if len(exact.Neighbors) < s.cfg.K {
		return
	}
	recall := Recall(res, exact, s.cfg.K)
	ratio := OverallRatio(res, exact, s.cfg.K)
	s.mu.Lock()
	s.scored++
	s.recallSum += recall
	s.ratioSum += ratio
	s.mu.Unlock()
	if target > 0 {
		if a, ok := s.eng.(autotuned); ok {
			a.observeServedRecall(target, recall)
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	batches, _ := s.batcher.Batches()
	s.mu.Lock()
	st := s.agg
	resp := statsResponse{
		Stats:           st,
		NIO:             st.IOs(),
		MeanIOs:         st.MeanIOs(),
		MeanRadii:       st.MeanRadii(),
		MeanChecked:     st.MeanChecked(),
		Served:          s.served,
		Failed:          s.failed,
		Canceled:        s.canceled,
		Degraded:        s.degraded,
		Inserts:         s.inserts,
		Deletes:         s.deletes,
		Shed:            s.batcher.Shed(),
		Panics:          s.panics + s.batcher.Panics(),
		CoalesceBatches: batches,
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Scored:          s.scored,
	}
	if rec, ok := s.eng.(recoverable); ok {
		rst := rec.RecoveryStats()
		resp.WALGeneration = rst.Generation
		resp.WALAppends = rst.Appends
		resp.WALReplayed = rst.Replayed
		resp.WALTornTail = rst.TornTail
	}
	if s.scored > 0 {
		resp.MeanRecall = s.recallSum / float64(s.scored)
		resp.MeanRatio = s.ratioSum / float64(s.scored)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves GET /metrics in Prometheus text exposition format:
// every Stats counter (as lsh_stats_<name>_total, names matching the /stats
// JSON keys), the serving counters, the always-on request-latency and
// coalescer-wait summaries, the batch-size and queue-depth settings, the I/O
// engine's retry and quarantine counters and its blocking gauge (lsh_io_*,
// when the engine has one),
// the store's and the block cache's sizes, the Go runtime's live heap and GC
// CPU (lsh_go_*), and — when the engine has telemetry or autotuning enabled —
// its per-stage latency summaries and model state under the lsh_ prefix.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	st := s.agg
	served, failed, canceled, degraded, panics := s.served, s.failed, s.canceled, s.degraded, s.panics
	inserts, deletes := s.inserts, s.deletes
	s.mu.Unlock()

	w.Header().Set("Content-Type", telemetry.PromContentType)
	writeStatsProm(w, st)
	telemetry.WriteCounter(w, "lsh_served_total", float64(served))
	telemetry.WriteCounter(w, "lsh_failed_total", float64(failed))
	telemetry.WriteCounter(w, "lsh_canceled_total", float64(canceled))
	telemetry.WriteCounter(w, "lsh_shed_total", float64(s.batcher.Shed()))
	telemetry.WriteCounter(w, "lsh_degraded_total", float64(degraded))
	telemetry.WriteCounter(w, "lsh_panics_total", float64(panics+s.batcher.Panics()))
	telemetry.WriteCounter(w, "lsh_inserts_total", float64(inserts))
	telemetry.WriteCounter(w, "lsh_deletes_total", float64(deletes))
	if rec, ok := s.eng.(recoverable); ok {
		rst := rec.RecoveryStats()
		telemetry.WriteCounter(w, "lsh_wal_appends_total", float64(rst.Appends))
		telemetry.WriteCounter(w, "lsh_wal_replayed_total", float64(rst.Replayed))
		telemetry.WriteGauge(w, "lsh_wal_generation", float64(rst.Generation))
		torn := 0.0
		if rst.TornTail {
			torn = 1
		}
		telemetry.WriteGauge(w, "lsh_wal_torn_tail", torn)
	}
	telemetry.WriteGauge(w, "lsh_uptime_seconds", time.Since(s.start).Seconds())
	telemetry.WriteGauge(w, "lsh_coalesce_max_batch", float64(s.batcher.MaxBatch()))
	telemetry.WriteGauge(w, "lsh_coalesce_executing", float64(s.batcher.Executing()))
	// The natural batch size, as the two halves of a mean: queries cut into
	// batches over batches cut.
	batches, batched := s.batcher.Batches()
	fmt.Fprintf(w, "# TYPE lsh_coalesce_batch_size summary\nlsh_coalesce_batch_size_sum %d\nlsh_coalesce_batch_size_count %d\n", batched, batches)
	if d, ok := s.eng.(interface{ IODepth() int }); ok {
		telemetry.WriteGauge(w, "lsh_io_depth", float64(d.IODepth()))
	}
	// Where resident memory goes: the index store and the block cache (on
	// unix both sit outside the Go heap), the heap the last collection left
	// live, and what collecting it costs against all the process's Go CPU.
	if sb, ok := s.eng.(interface{ StorageBytes() int64 }); ok {
		telemetry.WriteGauge(w, "lsh_index_store_bytes", float64(sb.StorageBytes()))
	}
	if cb, ok := s.eng.(interface{ CacheResidentBytes() int64 }); ok {
		telemetry.WriteGauge(w, "lsh_blockcache_resident_bytes", float64(cb.CacheResidentBytes()))
	}
	rt := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(rt)
	telemetry.WriteGauge(w, "lsh_go_heap_live_bytes", float64(rt[0].Value.Uint64()))
	telemetry.WriteCounter(w, "lsh_go_gc_cpu_seconds_total", rt[1].Value.Float64())
	telemetry.WriteCounter(w, "lsh_go_cpu_seconds_total", rt[2].Value.Float64()-rt[3].Value.Float64())
	if e, ok := s.eng.(interface{ IOCounters() IOEngineCounters }); ok {
		c := e.IOCounters()
		telemetry.WriteCounter(w, "lsh_io_reads_total", float64(c.Reads))
		telemetry.WriteCounter(w, "lsh_io_retried_reads_total", float64(c.RetriedReads))
		telemetry.WriteCounter(w, "lsh_io_faulted_reads_total", float64(c.FaultedReads))
		telemetry.WriteCounter(w, "lsh_io_quarantine_hits_total", float64(c.QuarantineHits))
		telemetry.WriteGauge(w, "lsh_io_quarantined", float64(c.Quarantined))
		telemetry.WriteGauge(w, "lsh_io_blocking", float64(c.Blocking))
	}

	var lat, wait telemetry.HistSnapshot
	s.lat.Snapshot(&lat)
	telemetry.WriteHistProm(w, "lsh_http_request_seconds", &lat)
	s.wait.Snapshot(&wait)
	telemetry.WriteHistProm(w, "lsh_coalesce_wait_seconds", &wait)

	if a, ok := s.eng.(autotuned); ok {
		if sp := a.autotuneSnapshot(); sp != nil {
			telemetry.WriteCounter(w, "lsh_autotune_trained_total", float64(sp.Ladders))
			telemetry.WriteGauge(w, "lsh_autotune_guard_margin", sp.GuardMargin)
		}
	}
	if t, ok := s.eng.(telemetered); ok {
		t.telemetrySnapshot().WriteProm(w, "lsh")
	}
}

// writeStatsProm emits every Stats counter as lsh_stats_<json key>_total,
// plus the derived lsh_stats_n_io_total (the paper's N_IO): /metrics and
// /stats read their names off the same struct tags.
func writeStatsProm(w io.Writer, st Stats) {
	ladder.EachCounter(st, func(name string, v int) {
		telemetry.WriteCounter(w, "lsh_stats_"+name+"_total", float64(v))
	})
	telemetry.WriteCounter(w, "lsh_stats_n_io_total", float64(st.IOs()))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
