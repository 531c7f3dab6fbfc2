package e2lshos

import (
	"context"
	"fmt"

	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/diskindex"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/shard"
	"e2lshos/internal/telemetry"
)

// StorageIndex is E2LSHoS: the hash index on (real or simulated) storage.
type StorageIndex struct {
	telem
	tune
	searchers
	ix *diskindex.Index
}

// EnableTelemetry turns on query telemetry (see the telem method it
// shadows) and, when the vectored I/O engine is attached, additionally
// routes every physical submit→complete latency into the io_op histogram.
func (s *StorageIndex) EnableTelemetry(opts ...TelemetryOption) error {
	if err := s.telem.EnableTelemetry(opts...); err != nil {
		return err
	}
	if eng := s.ix.IOEngine(); eng != nil {
		eng.SetLatencyHist(s.collector().StageHist(telemetry.StageIOOp))
	}
	return nil
}

// NewStorageIndex builds an E2LSHoS index over data into a block store: an
// in-memory one, or one over the WithStorageBackend backend (persist with
// SaveFile). Storage options that ask for a feature of the I/O engine —
// WithIOEngine's queue depth, WithBlockCache (and WithReadahead on top of
// it), WithRetries — attach one; without any of them queries read the store
// directly, one block at a time. WithShards partitions the index and
// WithWAL makes its updates durable.
func NewStorageIndex(data [][]float32, cfg Config, opts ...StorageOption) (*StorageIndex, error) {
	return openStorage(opts, false, func(store *blockstore.Store, _ storageSettings) (*diskindex.Index, error) {
		p, seed, tableBits, err := cfg.derive(data)
		if err != nil {
			return nil, err
		}
		return diskindex.Build(data, p, diskindex.Options{Seed: seed, TableBits: tableBits}, store)
	})
}

// SaveFile persists the index (metadata and blocks) to the named file.
func (s *StorageIndex) SaveFile(path string) error { return s.ix.SaveFile(path) }

// ProbeStorage verifies the backing store still answers: it reads the first
// allocated block through the checksum layer. The serving tier's /readyz
// calls this, so a dead or corrupting device flips readiness instead of
// queries discovering it one failure at a time.
func (s *StorageIndex) ProbeStorage() error {
	st := s.ix.Store()
	if st.NumBlocks() == 0 {
		return nil
	}
	buf := make([]byte, blockstore.BlockSize)
	if err := st.ReadBlock(1, buf); err != nil {
		return fmt.Errorf("e2lshos: storage probe: %w", err)
	}
	return nil
}

// OpenStorageIndex loads an index persisted by SaveFile into a block store
// chosen as in NewStorageIndex. data must be the vectors the index was built
// over (the database itself stays on DRAM, as in the paper). Every storage
// option applies as in NewStorageIndex; the cache is runtime state and is
// never persisted. Under WithWAL the loaded index starts a log in the
// directory, which OpenWALIndex then recovers with the same data.
func OpenStorageIndex(path string, data [][]float32, opts ...StorageOption) (*StorageIndex, error) {
	return openStorage(opts, false, func(store *blockstore.Store, _ storageSettings) (*diskindex.Index, error) {
		return diskindex.LoadFile(path, data, store)
	})
}

// OpenWALIndex recovers a crash-safe index from a WAL directory started by
// NewStorageIndex or OpenStorageIndex with WithWAL: it loads the newest
// checkpoint image into a block store chosen as in NewStorageIndex and
// replays the log's acked tail, so every update that was acked before the
// crash (or clean shutdown) is searchable again. data must be the vectors
// the log was started with — vectors inserted online afterwards are part of
// the durable state and come back from the checkpoint and log themselves.
// Every storage option applies as in NewStorageIndex (WithWAL is implied by
// dir); RecoveryStats reports what the replay found.
func OpenWALIndex(dir string, data [][]float32, opts ...StorageOption) (*StorageIndex, error) {
	replay := func(store *blockstore.Store, set storageSettings) (*diskindex.Index, error) {
		return diskindex.OpenWAL(dir, data, store, diskindex.WALConfig{FsyncEvery: set.fsyncEvery})
	}
	// WithWAL(dir) is appended so that WithFsyncEvery alone validates.
	return openStorage(append(opts[:len(opts):len(opts)], WithWAL(dir)), true, replay)
}

// openStorage is the one open path of the three constructors: it resolves
// the options, chooses the store (over the WithStorageBackend backend, else
// in memory), has fill build, load or recover the index into it, attaches
// the I/O engine, partitions the objects and, unless fill recovered a log,
// starts one under WithWAL.
func openStorage(opts []StorageOption, recovered bool, fill func(*blockstore.Store, storageSettings) (*diskindex.Index, error)) (*StorageIndex, error) {
	set, err := resolveStorageSettings(opts)
	if err != nil {
		return nil, err
	}
	store := blockstore.NewMem()
	if set.backend != nil {
		store = blockstore.NewWithBackend(set.backend)
	}
	ix, err := fill(store, set)
	if err != nil {
		return nil, err
	}
	if err := attachEngine(ix, set); err != nil {
		return nil, err
	}
	if err := partition(ix, set.shards); err != nil {
		return nil, err
	}
	if set.walDir != "" && !recovered {
		if err := ix.InitWAL(set.walDir, diskindex.WALConfig{FsyncEvery: set.fsyncEvery}); err != nil {
			return nil, err
		}
	}
	return &StorageIndex{ix: ix}, nil
}

// RecoveryStats mirrors diskindex.RecoveryStats at the facade: the WAL
// generation plus what recovery replayed (all zero without WithWAL).
type RecoveryStats = diskindex.RecoveryStats

// RecoveryStats reports the index's durability counters: the checkpoint
// generation, records replayed at open, whether a torn log tail was
// truncated, and the cumulative append/insert/delete counts.
func (s *StorageIndex) RecoveryStats() RecoveryStats { return s.ix.RecoveryStats() }

// Checkpoint writes a fresh checkpoint image (and insert-tail sidecar) and
// truncates the WAL under it, bounding replay time at the next open. The
// swap commits atomically through the manifest: a crash mid-checkpoint
// leaves the previous generation authoritative. Errors without WithWAL.
func (s *StorageIndex) Checkpoint() error { return s.ix.Checkpoint() }

// attachEngine realizes the resolved storage settings on the index: one
// I/O engine holding the queue depth, the cache and the retry budget, when
// any of them was asked for (resolveStorageSettings turns "a cache or
// retries but no depth" into the default depth).
func attachEngine(ix *diskindex.Index, set storageSettings) error {
	if set.ioDepth == 0 {
		return nil
	}
	var cache *blockcache.Cache
	if set.cacheBytes > 0 {
		var err error
		cache, err = blockcache.New(set.cacheBytes, blockcache.Options{})
		if err != nil {
			return err
		}
	}
	eng, err := ioengine.New(ix.Store(), ioengine.Options{
		Depth: set.ioDepth, Cache: cache, Retries: set.retries,
	})
	if err != nil {
		return err
	}
	ix.AttachIOEngine(eng, set.readahead)
	return nil
}

// partition realizes WithShards on the index, refusing a partition that would
// own no object as the shard router refuses an empty shard: with the same
// placement check.
func partition(ix *diskindex.Index, shards int) error {
	if shards <= 1 {
		return nil
	}
	if _, err := shard.Partition(len(ix.Data()), shards, shard.Hash); err != nil {
		return fmt.Errorf("e2lshos: %w", err)
	}
	ix.SetPartitions(shards)
	return nil
}

// CacheStats reports the cumulative block-cache counters across all queries
// (all zero when the index was built without WithBlockCache). Misses are
// the reads that reached the backend — the effective N_IO.
func (s *StorageIndex) CacheStats() (hits, misses, prefetched int64) {
	c := s.ix.Cache()
	if c == nil {
		return 0, 0, 0
	}
	return c.Hits(), c.Misses(), c.Prefetched()
}

// CacheResidentBytes reports the bytes of the blocks resident in the block
// cache (zero without WithBlockCache). On unix the cache sits outside the Go
// heap; a Server exposes this as lsh_blockcache_resident_bytes.
func (s *StorageIndex) CacheResidentBytes() int64 {
	c := s.ix.Cache()
	if c == nil {
		return 0
	}
	return int64(c.Len()) * blockstore.BlockSize
}

// IOEngineCounters is the vectored engine's cumulative counter set: block
// reads requested plus the fault-tolerance counters (retries issued, reads
// failed after retries, quarantine fast-fails, and the current quarantine
// size — a gauge), and whether the engine's backend blocks — a gauge that
// is 1 while queries read their rounds as waves and run readahead. How
// those reads split into cache hits, coalesced and physical reads is per
// query, in Stats.
type IOEngineCounters = ioengine.Counters

// IOCounters reports the cumulative vectored-engine counters across all
// queries (all zero when no storage option attached an engine); a Server
// exposes them on /metrics as lsh_io_*.
func (s *StorageIndex) IOCounters() IOEngineCounters {
	eng := s.ix.IOEngine()
	if eng == nil {
		return IOEngineCounters{}
	}
	return eng.Counters()
}

// IODepth reports the I/O engine's queue depth (0 without one).
func (s *StorageIndex) IODepth() int {
	eng := s.ix.IOEngine()
	if eng == nil {
		return 0
	}
	return eng.Depth()
}

// Search answers a top-k query. With an I/O engine attached (WithIOEngine,
// or the default depth under WithBlockCache/WithRetries) whose backend
// blocks, it fetches each radius round's probes as waves: all table blocks,
// then one wave per bucket-chain depth, as many reads in flight at once as
// the engine's queue depth — the paper's "many parallel read requests".
// Otherwise it walks each bucket block by block in line. It honors WithK,
// WithBudget and WithMultiProbe.
func (s *StorageIndex) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	return engineSearch(ctx, s, q, opts)
}

// BatchSearch answers queries on a worker pool; see Engine.
func (s *StorageIndex) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	return engineBatchSearch(ctx, s, queries, opts)
}

// StorageBytes reports the on-storage index size.
func (s *StorageIndex) StorageBytes() int64 { return s.ix.StorageBytes() }

// StrandedBytes reports how much of StorageBytes the updates applied since
// the index was built or opened left holding nothing: entries vacated in
// blocks that other buckets share, and emptied blocks awaiting reuse.
func (s *StorageIndex) StrandedBytes() int64 { return s.ix.StrandedBytes() }

// MemBytes reports the DRAM metadata footprint (bitmaps, table addresses,
// hash functions).
func (s *StorageIndex) MemBytes() int64 { return s.ix.MemBytes() }

// Insert adds one vector online (one head-block write per bucket, no
// rebuild) and returns its object ID. Fails once the index's ID space is
// exhausted. Safe to call concurrently with searches and other updates;
// with WithWAL the insert is durable — logged and synced — before Insert
// returns.
func (s *StorageIndex) Insert(v []float32) (uint32, error) { return s.ix.Insert(v) }

// Delete removes an object online, reporting whether any index entry was
// removed. Entries are removed in place; a block the delete empties is
// reused by later updates, and an entry vacated in a block that other
// buckets share stays stranded until a rebuild (see StrandedBytes). Safe to
// call concurrently with searches and other updates; with WithWAL the
// delete is durable before it returns.
func (s *StorageIndex) Delete(id uint32) (bool, error) { return s.ix.Delete(id) }

func (s *StorageIndex) newQuerier() querier { return s.ix.NewWaveSearcher() }
