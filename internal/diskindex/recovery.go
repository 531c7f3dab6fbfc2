package diskindex

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/wal"
)

// Durability & recovery. The working block store an index serves from is
// expendable (by default it is DRAM, standing in for the paper's SSD); the
// durable truth lives in a WAL directory:
//
//	MANIFEST              generation-stamped superblock, the commit point
//	checkpoint-<g>.img    SaveFile image of the index at generation g
//	tail-<g>.vec          vectors inserted online before generation g
//	wal-<g>.log           CRC32C-framed logical records since generation g
//
// Open = load the manifest's image (plus the tail vectors the image's
// external dataset does not carry), then replay the log's intact prefix.
// Checkpoint = write the next generation's image + tail + empty log, then
// atomically swing the manifest — a crash anywhere leaves one complete
// generation, never a mix.

// WALConfig configures the durability layer.
type WALConfig struct {
	// FsyncEvery is the group-commit interval (default 1: every update is
	// fsynced before it is acked). See wal.Options.
	FsyncEvery int
	// Crash, when set, injects fail-stop crash points into the log's write
	// path (tests); combine with faultinject.WrapCrash on the store backend
	// to cover block writes under the same budget.
	Crash wal.CrashPoint
}

// RecoveryStats reports the durability layer's state and lifetime counters.
type RecoveryStats struct {
	// Generation is the current manifest generation (0 without a WAL).
	Generation uint64
	// Replayed is how many log records the last open replayed.
	Replayed int
	// TornTail reports whether the last open truncated a torn final record.
	TornTail bool
	// TornBytes is how many damaged trailing bytes were discarded.
	TornBytes int64
	// Appends counts records appended to the current log by this process.
	Appends int64
	// Inserts and Deletes count update operations applied by this process
	// (replayed records included).
	Inserts int64
	Deletes int64
}

func checkpointName(gen uint64) string { return fmt.Sprintf("checkpoint-%06d.img", gen) }
func walName(gen uint64) string        { return fmt.Sprintf("wal-%06d.log", gen) }
func tailName(gen uint64) string       { return fmt.Sprintf("tail-%06d.vec", gen) }

// RecoveryStats snapshots the durability counters.
func (ix *Index) RecoveryStats() RecoveryStats {
	u := ix.upd
	u.mu.RLock()
	defer u.mu.RUnlock()
	st := RecoveryStats{
		Generation: u.gen,
		Replayed:   u.replayed,
		TornTail:   u.tornTail,
		TornBytes:  u.tornBytes,
		Inserts:    u.inserts,
		Deletes:    u.deletes,
	}
	if u.wal != nil {
		st.Appends = u.wal.Appends()
	}
	return st
}

// InitWAL makes the index durable under dir: it writes generation 1 (a full
// checkpoint image of the current state plus an empty log) and routes every
// subsequent Insert/Delete through the log. OpenWAL's base is then the
// vectors the index holds now. The directory must not already
// hold a manifest — resuming an existing directory is OpenWAL's job, and
// refusing here keeps a misconfigured restart from silently clobbering a
// recoverable state.
func (ix *Index) InitWAL(dir string, cfg WALConfig) error {
	u := ix.upd
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.wal != nil {
		return fmt.Errorf("diskindex: a WAL is already attached (dir %s)", u.dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("diskindex: create WAL dir: %w", err)
	}
	if _, err := wal.ReadManifest(dir); err == nil {
		return fmt.Errorf("diskindex: %s already holds a WAL manifest; open it with OpenWAL instead", dir)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("diskindex: probe manifest: %w", err)
	}
	u.dir = dir
	u.extN = len(ix.data) // vectors the caller supplies at open; later ids checkpoint into the tail
	u.fsyncEvery = cfg.FsyncEvery
	u.crash = cfg.Crash
	u.gen = 0
	return ix.checkpointLocked()
}

// Checkpoint freezes the current state into the next generation: image +
// tail vectors + a fresh empty log, committed by an atomic manifest swing,
// after which the previous generation's files are removed. The log is
// thereby truncated; recovery cost resets to zero.
func (ix *Index) Checkpoint() error {
	u := ix.upd
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.wal == nil {
		return fmt.Errorf("diskindex: no WAL attached; nothing to checkpoint")
	}
	return ix.checkpointLocked()
}

// checkpointLocked writes generation gen+1 and swings the manifest. On any
// error before the manifest write the old generation (files and open log)
// is untouched and remains authoritative.
func (ix *Index) checkpointLocked() error {
	u := ix.upd
	gen := u.gen + 1
	m := wal.Manifest{
		Generation: gen,
		Image:      checkpointName(gen),
		Log:        walName(gen),
		Tail:       tailName(gen),
	}
	if err := ix.SaveFile(filepath.Join(u.dir, m.Image)); err != nil {
		return err
	}
	if err := saveTailVectors(filepath.Join(u.dir, m.Tail), ix.data, u.extN, ix.params.Dim); err != nil {
		return err
	}
	next, _, err := wal.Open(filepath.Join(u.dir, m.Log),
		wal.Options{FsyncEvery: u.fsyncEvery, Crash: u.crash}, nil)
	if err != nil {
		return fmt.Errorf("diskindex: open fresh log: %w", err)
	}
	if err := wal.WriteManifest(u.dir, m); err != nil {
		next.Close()
		return err
	}
	// Committed: swap logs and drop the previous generation's files.
	if u.wal != nil {
		u.wal.Close() //nolint:errcheck // superseded by the checkpoint
	}
	u.wal = next
	prev := u.gen
	u.gen = gen
	if prev > 0 {
		for _, name := range []string{checkpointName(prev), walName(prev), tailName(prev)} {
			os.Remove(filepath.Join(u.dir, name)) //nolint:errcheck // best-effort cleanup
		}
	}
	return nil
}

// OpenWAL recovers an index from a WAL directory: load the manifest's
// checkpoint image over (base vectors + tail sidecar), replay the log's
// intact records, truncate any torn tail, and resume logging. base must be
// the same external dataset the index was built over; vectors inserted
// online are restored from the directory itself.
func OpenWAL(dir string, base [][]float32, store *blockstore.Store, cfg WALConfig) (*Index, error) {
	m, err := wal.ReadManifest(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("diskindex: no WAL manifest in %s (initialize with InitWAL): %w", dir, err)
		}
		return nil, fmt.Errorf("diskindex: read manifest: %w", err)
	}
	data := base
	if m.Tail != "" {
		tail, first, err := loadTailVectors(filepath.Join(dir, m.Tail))
		if err != nil {
			return nil, err
		}
		if first != len(base) {
			return nil, fmt.Errorf("diskindex: WAL tail starts at ID %d but %d base vectors were supplied", first, len(base))
		}
		data = make([][]float32, 0, len(base)+len(tail))
		data = append(append(data, base...), tail...)
	}
	img, err := os.Open(filepath.Join(dir, m.Image))
	if err != nil {
		return nil, fmt.Errorf("diskindex: open checkpoint image: %w", err)
	}
	ix, err := Load(img, data, store)
	img.Close()
	if err != nil {
		return nil, err
	}
	u := ix.upd
	u.mu.Lock()
	defer u.mu.Unlock()
	u.dir = dir
	u.gen = m.Generation
	u.extN = len(base)
	u.fsyncEvery = cfg.FsyncEvery
	u.crash = cfg.Crash
	log, lst, err := wal.Open(filepath.Join(dir, m.Log),
		wal.Options{FsyncEvery: cfg.FsyncEvery, Crash: cfg.Crash},
		func(rec wal.Record) error { return ix.applyRecordLocked(rec) })
	if err != nil {
		return nil, err
	}
	u.wal = log
	u.replayed = lst.Replayed
	u.tornTail = lst.TornTail
	u.tornBytes = lst.TornBytes
	removeStaleGenerations(dir, m)
	return ix, nil
}

// applyRecordLocked replays one log record idempotently.
func (ix *Index) applyRecordLocked(rec wal.Record) error {
	u := ix.upd
	switch rec.Type {
	case wal.RecordInsert:
		if len(rec.Vec) != ix.params.Dim {
			return fmt.Errorf("diskindex: insert record dim %d, index dim %d", len(rec.Vec), ix.params.Dim)
		}
		if uint64(rec.ID) >= uint64(1)<<ix.idBits {
			return fmt.Errorf("diskindex: insert record ID %d outside the %d-bit ID space", rec.ID, ix.idBits)
		}
		if err := ix.applyInsertLocked(rec.ID, rec.Vec, true); err != nil {
			return err
		}
		u.inserts++
		return nil
	case wal.RecordDelete:
		if int(rec.ID) >= len(ix.data) {
			return fmt.Errorf("diskindex: delete record for unknown ID %d", rec.ID)
		}
		if _, err := ix.applyDeleteLocked(rec.ID); err != nil {
			return err
		}
		u.deletes++
		return nil
	}
	return fmt.Errorf("diskindex: unknown WAL record type %d", rec.Type)
}

// removeStaleGenerations best-effort deletes files a crashed checkpoint
// orphaned: anything matching our naming scheme that the live manifest does
// not reference.
func removeStaleGenerations(dir string, m wal.Manifest) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keep := map[string]bool{m.Image: true, m.Log: true, m.Tail: true, wal.ManifestName: true}
	for _, e := range ents {
		name := e.Name()
		if keep[name] {
			continue
		}
		if strings.HasPrefix(name, "checkpoint-") || strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "tail-") {
			os.Remove(filepath.Join(dir, name)) //nolint:errcheck
		}
	}
}

// Tail-vectors sidecar: the checkpoint image (like the paper's setup) does
// not carry the database, but vectors inserted online exist nowhere else —
// they are persisted here at checkpoint time so log truncation cannot lose
// them. Format: magic, version, firstID, count, dim, count×dim f32, CRC32C.
const tailMagic = "E2TV"

var tailCRC = crc32.MakeTable(crc32.Castagnoli)

func saveTailVectors(path string, data [][]float32, extN, dim int) error {
	tail := data[extN:]
	b := make([]byte, 0, 16+4*dim*len(tail)+4)
	b = append(b, tailMagic...)
	b = binary.LittleEndian.AppendUint32(b, 1) // version
	b = binary.LittleEndian.AppendUint32(b, uint32(extN))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(tail)))
	b = binary.LittleEndian.AppendUint32(b, uint32(dim))
	for _, v := range tail {
		for _, x := range v {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, tailCRC))
	return wal.WriteFileAtomic(path, func(f *os.File) error {
		_, err := f.Write(b)
		return err
	})
}

func loadTailVectors(path string) ([][]float32, int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("diskindex: read tail vectors: %w", err)
	}
	if len(b) < 20+4 || string(b[:4]) != tailMagic {
		return nil, 0, fmt.Errorf("diskindex: %s is not a tail-vectors file", path)
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.Checksum(body, tailCRC); got != sum {
		return nil, 0, fmt.Errorf("diskindex: tail vectors checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	if v := binary.LittleEndian.Uint32(body[4:8]); v != 1 {
		return nil, 0, fmt.Errorf("diskindex: unsupported tail-vectors version %d", v)
	}
	first := int(binary.LittleEndian.Uint32(body[8:12]))
	count := int(binary.LittleEndian.Uint32(body[12:16]))
	dim := int(binary.LittleEndian.Uint32(body[16:20]))
	if len(body) != 20+4*dim*count {
		return nil, 0, fmt.Errorf("diskindex: tail vectors payload is %d bytes, want %d", len(body)-20, 4*dim*count)
	}
	vecs := make([][]float32, count)
	off := 20
	for i := range vecs {
		v := make([]float32, dim)
		for j := range v {
			v[j] = math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))
			off += 4
		}
		vecs[i] = v
	}
	return vecs, first, nil
}
