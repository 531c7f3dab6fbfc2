package ladder

import (
	"fmt"
	"reflect"
	"unsafe"
)

// Stats aggregates what one query — or one batch — did, in the units the
// paper's analysis needs (Table 4, Figs 3–8). It is the one definition of
// every work counter: the searchers count straight into the driver's copy,
// the facade returns it as e2lshos.Stats, and each field's json tag is its
// /stats key and, as lsh_stats_<tag>_total, its /metrics name. Engines leave
// counters they do not track at zero; Queries counts the queries folded in,
// so per-query means are Mean* methods away. Every field is an int (init
// checks), so adding a counter is adding a field with its tag.
type Stats struct {
	// Queries is the number of queries aggregated into this Stats.
	Queries int `json:"queries"`
	// Radii is the number of (R,c)-NN ladder rounds executed (r̄·Queries).
	Radii int `json:"radii"`
	// Probes counts bucket/table lookups attempted.
	Probes int `json:"probes"`
	// NonEmptyProbes counts lookups that hit a non-empty bucket; with the
	// paper's DRAM occupancy bitmaps only these cost I/O.
	NonEmptyProbes int `json:"non_empty_probes"`
	// EntriesScanned counts bucket entries examined, duplicates
	// included. On storage Checked + Duplicates + FPRejected ≤
	// EntriesScanned, with equality whenever the budget did not cut a round
	// short.
	EntriesScanned int `json:"entries_scanned"`
	// Checked counts full-dimensional distance computations.
	Checked int `json:"checked"`
	// Duplicates counts entries skipped because the object was already seen.
	Duplicates int `json:"duplicates"`
	// FPRejected counts entries dropped by the storage fingerprint check
	// (§5.2): u-bit collisions that are not 32-bit collisions.
	FPRejected int `json:"fp_rejected"`
	// TableIOs counts on-storage hash-table block reads.
	TableIOs int `json:"table_ios"`
	// BucketIOs counts on-storage bucket block reads, including chains.
	BucketIOs int `json:"bucket_ios"`
	// CacheHits and CacheMisses count block-cache outcomes on StorageIndex
	// reads (counted when the index was built WithBlockCache). Hits
	// never reach the backend, so CacheMisses is the effective N_IO of a
	// cached engine; IOs() keeps reporting the logical count for
	// comparability with uncached runs.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// PrefetchedBlocks counts blocks WithReadahead pulled into the cache
	// between radius rounds on behalf of these queries.
	PrefetchedBlocks int `json:"prefetched_blocks"`
	// CoalescedReads counts backend reads the I/O engine saved by merging
	// runs of adjacent block addresses into single vectored operations. It,
	// DedupedReads and PhysicalReads are counted whenever an engine exists —
	// built WithIOEngine, WithBlockCache or WithRetries — and stay zero on an
	// index that reads its store in line. IOs() keeps reporting the logical
	// count; physical backend operations are IOs() − CacheHits −
	// CoalescedReads with a cache attached (a deduped read is counted inside
	// CacheHits), and IOs() − DedupedReads − CoalescedReads without one.
	CoalescedReads int `json:"coalesced_reads"`
	// DedupedReads counts reads served by another read of the same block in
	// the same wave of the same query.
	DedupedReads int `json:"deduped_reads"`
	// PhysicalReads counts the backend operations the I/O engine issued for
	// the query after coalescing and dedup, retries not included. IOs()
	// keeps reporting the logical count.
	PhysicalReads int `json:"physical_reads"`
	// FaultedReads counts block reads that still failed after the storage
	// tier's retries (zero on healthy devices and on the in-memory
	// engines). Cancellation is not a fault.
	FaultedReads int `json:"faulted_reads"`
	// SkippedChains counts bucket chains abandoned — or never entered —
	// because a block was unreadable: the degraded-mode skips behind
	// FaultedReads.
	SkippedChains int `json:"skipped_chains"`
	// Partial counts queries that skipped at least one chain and thus
	// served a possibly-incomplete result (per query it is 0 or 1; Merge
	// makes it the partial-query count alongside Queries).
	Partial int `json:"partial_queries"`
	// IOsAtInf is the paper's N_IO,∞ for the in-memory reference: what the
	// query would cost on storage with unlimited block size, one hash-table
	// read plus one bucket read per non-empty probed bucket.
	IOsAtInf int `json:"ios_at_inf"`
	// RoundsSkipped counts ladder rounds the autotune controller cut
	// relative to the full schedule (recall-target early stops and
	// latency-budget stops; zero without EnableAutotune).
	RoundsSkipped int `json:"rounds_skipped"`
	// BudgetExhausted counts queries the controller stopped because their
	// latency budget could not cover another round.
	BudgetExhausted int `json:"budget_exhausted"`
	// DegradedKnobs counts knob-degradation steps the controller took
	// mid-query (readahead off, multi-probe down, candidate budget down) to
	// stay within latency budgets.
	DegradedKnobs int `json:"degraded_knobs"`
	// RecallStopped counts ladders the controller stopped early because the
	// estimated recall had reached the query's target.
	RecallStopped int `json:"recall_stopped"`
}

// numCounters is the number of fields of Stats.
const numCounters = int(unsafe.Sizeof(Stats{}) / unsafe.Sizeof(int(0)))

// counterNames holds each field's wire name, in declaration order.
var counterNames [numCounters]string

// init reads the wire names off the struct tags and checks what counters()
// relies on: Stats is nothing but ints.
func init() {
	t := reflect.TypeOf(Stats{})
	if t.NumField() != numCounters {
		panic("ladder: Stats must hold only int counters")
	}
	for i := range counterNames {
		f := t.Field(i)
		name := f.Tag.Get("json")
		if f.Type.Kind() != reflect.Int || name == "" {
			panic(fmt.Sprintf("ladder: Stats.%s must be an int with a json tag", f.Name))
		}
		counterNames[i] = name
	}
}

// counters views s as the array of its fields, which is how Merge and the
// exposition walk every counter without naming one: Merge runs per query on
// every engine, where reflection would cost more than the hand-written sum
// it replaces.
func (s *Stats) counters() *[numCounters]int {
	return (*[numCounters]int)(unsafe.Pointer(s))
}

// Merge folds o into s.
func (s *Stats) Merge(o Stats) {
	dst, src := s.counters(), o.counters()
	for i := range dst {
		dst[i] += src[i]
	}
}

// EachCounter calls fn with every counter's wire name and value, in
// declaration order.
func EachCounter(s Stats, fn func(name string, v int)) {
	for i, v := range s.counters() {
		fn(counterNames[i], v)
	}
}

// IOs returns the total storage I/O count (the paper's N_IO).
func (s Stats) IOs() int { return s.TableIOs + s.BucketIOs }

// MeanRadii returns the paper's r̄, the average radii searched per query.
func (s Stats) MeanRadii() float64 { return s.perQuery(s.Radii) }

// MeanIOs returns the average N_IO per query.
func (s Stats) MeanIOs() float64 { return s.perQuery(s.IOs()) }

// MeanChecked returns the average distance computations per query.
func (s Stats) MeanChecked() float64 { return s.perQuery(s.Checked) }

func (s Stats) perQuery(total int) float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(total) / float64(s.Queries)
}
