// Package e2lshos is a Go implementation of E2LSH-on-Storage (E2LSHoS) from
// "Implementing and Evaluating E2LSH on Storage" (EDBT 2023): classic E2LSH
// approximate nearest neighbor search with its large hash index held in
// external memory and queried with asynchronous reads.
//
// The package exposes two search engines over the same p-stable LSH core,
// both satisfying the single Engine interface:
//
//   - InMemoryIndex: the original E2LSH algorithm, everything on DRAM.
//   - StorageIndex: E2LSHoS — 512-byte bucket blocks, on-storage hash
//     tables, fingerprints, DRAM occupancy bitmaps; persisted to a file and
//     queried in vectored read waves at the I/O engine's queue depth, or
//     run against the simulated storage stack for capacity planning.
//
// The small-index baselines the paper compares against (SRS, QALSH) and the
// table and figure generators live in the experiment harness
// (internal/experiments, run by cmd/lshbench), which this package does not
// import.
//
// Every engine answers queries through
//
//	Search(ctx, q, opts...) (Result, Stats, error)
//	BatchSearch(ctx, queries, opts...) ([]Result, Stats, error)
//
// where the functional options (WithK, WithBudget, WithMultiProbe,
// WithTuning, WithWorkers) carry the per-query knobs, Stats surfaces the paper's N_IO / candidate /
// radius-ladder counters, and ctx cancels in-flight work between radius
// rounds.
//
// On top of the engines sits a serving subsystem: ShardedIndex partitions a
// dataset across N sub-engines (hash or range placement) and is itself an
// Engine with globally-correct IDs and folded Stats, while Server exposes
// any Engine over HTTP behind a micro-batching query coalescer (/v1/search,
// /stats, /healthz — see cmd/lshserve).
//
// It also exposes synthetic clones of the paper's eight evaluation datasets.
// See README.md for a tour and DESIGN.md for the architecture.
package e2lshos

import (
	"e2lshos/internal/ann"
	"e2lshos/internal/dataset"
	"e2lshos/internal/ladder"
)

// Neighbor is one returned neighbor: object ID and Euclidean distance.
type Neighbor = ann.Neighbor

// Result is the outcome of one top-k query, sorted by ascending distance.
type Result = ann.Result

// Stats aggregates what one query — or one batch — did, in the units the
// paper's analysis needs (N_IO above all). Each counter is declared once, in
// ladder.Stats, with the name /stats and /metrics expose it under.
type Stats = ladder.Stats

// Dataset is an in-memory point set with a query set.
type Dataset = dataset.Dataset

// DatasetSpec describes a synthetic dataset to generate.
type DatasetSpec = dataset.Spec

// PaperDataset names one of the paper's eight evaluation datasets.
type PaperDataset = dataset.PaperName

// The Table 1 datasets.
const (
	MSONG  = dataset.MSONG
	SIFT   = dataset.SIFT
	GIST   = dataset.GIST
	RAND   = dataset.RAND
	GLOVE  = dataset.GLOVE
	GAUSS  = dataset.GAUSS
	MNIST  = dataset.MNIST
	BIGANN = dataset.BIGANN
)

// GenerateDataset materializes a synthetic dataset.
func GenerateDataset(spec DatasetSpec) (*Dataset, error) { return dataset.Generate(spec) }

// GeneratePaperDataset materializes a scaled clone of a Table 1 dataset.
// scale multiplies the paper's size (1.0 = full size); minN clamps the
// result; queries sets the held-out query count.
func GeneratePaperDataset(name PaperDataset, scale float64, minN, queries int) (*Dataset, error) {
	return dataset.GeneratePaper(name, scale, minN, queries)
}

// GroundTruth computes exact top-k answers for every query by parallel
// brute force.
func GroundTruth(d *Dataset, k int) []Result { return dataset.GroundTruth(d, k) }

// OverallRatio is the paper's accuracy metric (§3.2): mean distance ratio of
// the returned neighbors to the exact ones; 1.0 is exact.
func OverallRatio(got, exact Result, k int) float64 { return ann.OverallRatio(got, exact, k) }

// Recall returns |returned ∩ exact top-k| / k.
func Recall(got, exact Result, k int) float64 { return ann.Recall(got, exact, k) }

// MeanRatio returns the mean OverallRatio over positionally-aligned result
// sets — the batch-level accuracy every harness, example and the serving
// /stats endpoint report. Only the first min(len(got), len(exact)) pairs are
// scored.
func MeanRatio(got, exact []Result, k int) float64 { return ann.MeanRatio(got, exact, k) }

// MeanRecall returns the mean Recall@k over positionally-aligned result
// sets.
func MeanRecall(got, exact []Result, k int) float64 { return ann.MeanRecall(got, exact, k) }
