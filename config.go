package e2lshos

import (
	"fmt"
	"math/rand"
	"sort"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/dataset"
	"e2lshos/internal/lsh"
)

// Config selects the E2LSH algorithm parameters (§3.3). The zero value
// selects paper-aligned defaults for every field.
type Config struct {
	// C is the per-radius approximation ratio (default 2; the overall
	// guarantee is c²-ANNS).
	C float64
	// W is the bucket width at radius 1 (default 4).
	W float64
	// Rho is the index growth exponent: L = n^Rho compound hashes
	// (default 0.22). Larger means a bigger index and better accuracy.
	Rho float64
	// Gamma scales the hash functions per compound hash (default 1).
	Gamma float64
	// Sigma scales the per-radius candidate budget S = Sigma·L (default 2).
	// It is the main accuracy knob and needs no rebuild; override per query
	// with the WithBudget search option.
	Sigma float64
	// RMin and RMax bound the search radius ladder. Zero means estimate
	// RMin from sampled nearest-neighbor distances and RMax from the
	// coordinate extent (R_max = 2·x_max·√d).
	RMin, RMax float64
	// Seed drives hash function generation (default 1).
	Seed int64
	// TableBits is E2LSHoS's u (hash bits consumed by the on-storage table);
	// zero selects automatically.
	TableBits uint
}

// derive resolves defaults and produces the internal parameter set.
func (c Config) derive(data [][]float32) (lsh.Params, int64, uint, error) {
	if len(data) == 0 {
		return lsh.Params{}, 0, 0, fmt.Errorf("e2lshos: empty dataset")
	}
	cfg := lsh.DefaultConfig()
	if c.C != 0 {
		cfg.C = c.C
	}
	if c.W != 0 {
		cfg.W = c.W
	}
	if c.Rho != 0 {
		cfg.Rho = c.Rho
	}
	if c.Gamma != 0 {
		cfg.Gamma = c.Gamma
	}
	if c.Sigma != 0 {
		cfg.Sigma = c.Sigma
	}
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	rmin := c.RMin
	if rmin == 0 {
		rmin = estimateRMin(data, seed)
	}
	rmax := c.RMax
	if rmax == 0 {
		rmax = lsh.MaxRadius(maxAbs(data), len(data[0]))
	}
	p, err := lsh.Derive(cfg, len(data), len(data[0]), rmin, rmax)
	return p, seed, c.TableBits, err
}

// StorageOption tunes the storage tier of NewStorageIndex, OpenStorageIndex
// and OpenWALIndex beyond the algorithmic Config: the block store's backend,
// the I/O engine (queue depth, block cache, readahead, retries) that sits
// between the query path and the block store, the hash partitions and the
// write-ahead log. Every option composes with every other and with all three
// constructors. No option turns off the CRC32C check of every block read.
// Unlike SearchOptions these are build/open-time choices; the accuracy knobs
// stay in Config and the per-query options.
type StorageOption func(*storageSettings)

// storageSettings is the resolved storage option set.
type storageSettings struct {
	cacheBytes int64
	readahead  int
	ioDepth    int
	retries    int
	backend    blockstore.Backend
	walDir     string
	fsyncEvery int
	shards     int
}

// WithBlockCache interposes a concurrency-safe, scan-resistant block cache
// of the given byte capacity between the searchers and the block store.
// Cache hits never reach the backend, so on repeated or skewed workloads
// the effective N_IO drops to the miss count (Stats.CacheMisses). The cache
// lives inside the I/O engine; without WithIOEngine the engine runs at the
// default queue depth.
func WithBlockCache(bytes int64) StorageOption {
	return func(s *storageSettings) { s.cacheBytes = bytes }
}

// WithReadahead enables asynchronous readahead between radius-ladder
// rounds: while one round's candidates are being verified, the I/O engine
// prefetches the next round's occupied table blocks and up to depth bucket
// blocks per chain into the block cache, as vectored waves under its queue
// depth. Requires WithBlockCache.
func WithReadahead(depth int) StorageOption {
	return func(s *storageSettings) { s.readahead = depth }
}

// WithIOEngine routes every read of the index through a shared vectored
// asynchronous I/O engine driving the backend at the given queue depth:
// each radius round's table entries and bucket-chain waves are submitted as
// vectored batches, a block asked for twice in one wave is read once, and
// runs of adjacent blocks coalesce into single physical reads. Combine with
// WithBlockCache to serve hits before any of that; alone, the engine still
// batches and coalesces against the raw store. Stats then report
// PhysicalReads, CoalescedReads and DedupedReads alongside the logical
// N_IO, which exceeds the in-line index's only where the budget cuts short
// a round the batch has read ahead of. The engine is the only place reads
// overlap: an index built without it (and without WithBlockCache or
// WithRetries, which attach one at the default depth of 16) walks each
// bucket block by block on the querying goroutine, as the reference
// searcher does — the right configuration for a RAM-resident store, where a
// hand-off costs more than the 512-byte copy it would parallelise.
func WithIOEngine(depth int) StorageOption {
	return func(s *storageSettings) { s.ioDepth = depth }
}

// WithRetries makes the I/O engine retry failed block reads up to n times
// with capped exponential backoff and jitter before giving up; addresses
// that exhaust the budget land in a bounded quarantine set and fail fast
// afterwards. The retry layer lives in the I/O engine; without WithIOEngine
// the engine runs at the default queue depth. Queries degrade around reads
// that still fail: the affected chains are skipped and the result is marked
// partial (Stats.Partial) instead of the query erroring out.
func WithRetries(n int) StorageOption {
	return func(s *storageSettings) { s.retries = n }
}

// WithWAL makes online updates durable: Insert and Delete append a
// checksummed record to a write-ahead log under dir before touching the
// index, and ack only after the record is synced. NewStorageIndex and
// OpenStorageIndex write an initial checkpoint into dir (which must not
// already hold one — recover an existing directory with OpenWALIndex
// instead); Checkpoint truncates the log under a fresh checkpoint image. One
// log serves every partition of a WithShards index.
func WithWAL(dir string) StorageOption {
	return func(s *storageSettings) { s.walDir = dir }
}

// WithFsyncEvery relaxes the WAL's durability to group commit: the log is
// fsynced every n appends instead of every append, trading a bounded window
// of acked-but-unsynced updates (at most n-1 records on power loss) for
// update throughput. n = 1 is the default sync-every-append discipline.
// Requires WithWAL.
func WithFsyncEvery(n int) StorageOption {
	return func(s *storageSettings) { s.fsyncEvery = n }
}

// WithStorageBackend puts the index's block store over the supplied backend
// instead of the default in-memory one — the injection point for
// fault-injecting wrappers in chaos tests and for custom block devices. The
// index is built, loaded or recovered into it, starting at its first block.
func WithStorageBackend(b blockstore.Backend) StorageOption {
	return func(s *storageSettings) { s.backend = b }
}

// WithShards splits the index's objects into s hash partitions — object g
// belongs to partition splitmix64(g) mod s, the shard router's hash placement —
// each with its own radius ladder, candidate budget, top-k and autotune
// controller, over one index. A query walks the hash tables once (one
// projection, each block read once) and feeds every partition still
// climbing; the answers are exactly those of NewShardedIndex over s
// StorageShardBuilder(ShardConfig(cfg, data, s)) shards with PlaceHash, which
// derive the same parameters and hash families, at the I/O of the deepest
// partition's ladder instead of the sum of s ladders. The index is still one
// engine: a lone query runs on one goroutine. Every index is partitioned: the
// default, WithShards(1), is one partition holding every object, the plain
// E2LSH ladder. Every partition must own at least one object. Partitions are
// not persisted: an opened or recovered index takes the count its open asks
// for.
func WithShards(s int) StorageOption {
	return func(st *storageSettings) { st.shards = s }
}

// defaultIODepth is the queue depth of an I/O engine attached only because a
// feature that lives inside it (WithBlockCache, WithRetries) was asked for.
const defaultIODepth = 16

// resolveStorageSettings applies opts, validates the combination and
// resolves the engine's queue depth.
func resolveStorageSettings(opts []StorageOption) (storageSettings, error) {
	var s storageSettings
	for _, o := range opts {
		o(&s)
	}
	switch {
	case s.cacheBytes < 0:
		return s, fmt.Errorf("e2lshos: negative block cache size %d", s.cacheBytes)
	case s.readahead < 0:
		return s, fmt.Errorf("e2lshos: negative readahead depth %d", s.readahead)
	case s.readahead > 0 && s.cacheBytes == 0:
		return s, fmt.Errorf("e2lshos: WithReadahead requires WithBlockCache (prefetch lands in the cache)")
	case s.ioDepth < 0:
		return s, fmt.Errorf("e2lshos: negative I/O engine queue depth %d", s.ioDepth)
	case s.retries < 0:
		return s, fmt.Errorf("e2lshos: negative retry budget %d", s.retries)
	case s.fsyncEvery < 0:
		return s, fmt.Errorf("e2lshos: negative fsync interval %d", s.fsyncEvery)
	case s.fsyncEvery > 0 && s.walDir == "":
		return s, fmt.Errorf("e2lshos: WithFsyncEvery requires WithWAL (it tunes the log's group commit)")
	case s.shards < 0:
		return s, fmt.Errorf("e2lshos: negative shard count %d", s.shards)
	}
	if s.ioDepth == 0 && (s.cacheBytes > 0 || s.retries > 0) {
		s.ioDepth = defaultIODepth
	}
	return s, nil
}

// estimateRMin samples nearest-neighbor distances within the dataset and
// returns a low quantile, the starting radius of the ladder. The samples'
// exact 2-NN run as one tiled, parallel pass over the data.
func estimateRMin(data [][]float32, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	samples := make([][]float32, min(30, len(data)))
	for i := range samples {
		samples[i] = data[rng.Intn(len(data))]
	}
	dists := make([]float64, 0, len(samples))
	for _, res := range dataset.KNN(data, samples, 2) {
		// Rank 0 is the point itself (distance 0); rank 1 is its NN.
		if len(res.Neighbors) > 1 && res.Neighbors[1].Dist > 0 {
			dists = append(dists, res.Neighbors[1].Dist)
		}
	}
	if len(dists) == 0 {
		return 1
	}
	sort.Float64s(dists)
	return dists[len(dists)/20] // 5th percentile
}

func maxAbs(vecs [][]float32) float64 {
	var m float64
	for _, v := range vecs {
		for _, x := range v {
			ax := float64(x)
			if ax < 0 {
				ax = -ax
			}
			if ax > m {
				m = ax
			}
		}
	}
	return m
}
