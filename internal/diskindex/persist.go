package diskindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/lsh"
	"e2lshos/internal/wal"
)

// Index file format: a metadata header followed by the serialized block
// store. Hash functions are not stored — they are regenerated from the seed,
// which lsh.NewFamilies guarantees to be deterministic.
const (
	indexMagic   = "E2IX"
	indexVersion = 2 // 2: buckets packed into shared blocks (see the package doc)
)

// Save writes the index (metadata + blocks) to w. The database vectors are
// not included; like the paper's setup, they live separately on DRAM.
func (ix *Index) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(indexMagic); err != nil {
		return fmt.Errorf("diskindex: write magic: %w", err)
	}
	p := ix.params
	fields := []any{
		uint32(indexVersion),
		// Config
		p.C, p.W, p.Rho, p.Gamma, p.Sigma, int64(p.MaxRadii),
		// Derived params
		int64(p.N), int64(p.Dim), int64(p.M), int64(p.L), int64(p.S), p.P1, p.P2,
		// Options
		byte(1), ix.opts.Seed, // 1: one projection set shared by every radius
		uint32(ix.opts.TableBits), int64(blockstore.BlockSize), // bucket block bytes
		// Layout
		uint32(ix.u), uint32(ix.idBits),
		int64(len(p.Radii)),
	}
	for _, f := range fields {
		if err := binary.Write(bw, binary.LittleEndian, f); err != nil {
			return fmt.Errorf("diskindex: write header: %w", err)
		}
	}
	for _, r := range p.Radii {
		if err := binary.Write(bw, binary.LittleEndian, r); err != nil {
			return fmt.Errorf("diskindex: write radii: %w", err)
		}
	}
	for r := 0; r < p.R(); r++ {
		for l := 0; l < p.L; l++ {
			if err := binary.Write(bw, binary.LittleEndian, uint64(ix.tableBase[r][l])); err != nil {
				return fmt.Errorf("diskindex: write table bases: %w", err)
			}
		}
	}
	for r := 0; r < p.R(); r++ {
		for l := 0; l < p.L; l++ {
			for _, word := range ix.occupied[r][l] {
				if err := binary.Write(bw, binary.LittleEndian, word); err != nil {
					return fmt.Errorf("diskindex: write bitmaps: %w", err)
				}
			}
		}
	}
	if _, err := ix.store.WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// Load restores an index saved by Save into the given store backend. data
// must be the same vectors the index was built over.
func Load(r io.Reader, data [][]float32, store *blockstore.Store) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("diskindex: read magic: %w", err)
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("diskindex: bad magic %q", magic)
	}
	var (
		version, tableBits, u, idBits   uint32
		c, w, rho, gamma, sigma, p1, p2 float64
		maxRadii, n, dim, m, l, s, nr   int64
		share                           byte
		seed, bucketBytes               int64
	)
	fields := []any{
		&version,
		&c, &w, &rho, &gamma, &sigma, &maxRadii,
		&n, &dim, &m, &l, &s, &p1, &p2,
		&share, &seed, &tableBits, &bucketBytes,
		&u, &idBits, &nr,
	}
	for _, f := range fields {
		if err := binary.Read(br, binary.LittleEndian, f); err != nil {
			return nil, fmt.Errorf("diskindex: read header: %w", err)
		}
	}
	if version == 1 {
		return nil, fmt.Errorf("diskindex: image version 1 gives every bucket a block of its own; this build reads version %d only, so rebuild the index", indexVersion)
	}
	if version != indexVersion {
		return nil, fmt.Errorf("diskindex: unsupported version %d", version)
	}
	if bucketBytes != blockstore.BlockSize {
		return nil, fmt.Errorf("diskindex: image has %d-byte bucket blocks; this build reads %d-byte ones only", bucketBytes, blockstore.BlockSize)
	}
	if share != 1 {
		return nil, fmt.Errorf("diskindex: image has share byte %d (a hash family per radius); this build shares one family across radii only, so rebuild the index", share)
	}
	// The image may predate online inserts: those vectors ride in the WAL
	// directory's tail sidecar and log, so data may legitimately be longer
	// than the build-time n — only shorter is unrecoverable.
	if len(data) < int(n) {
		return nil, fmt.Errorf("diskindex: index built over %d objects, data has only %d", n, len(data))
	}
	if nr <= 0 || nr > 64 {
		return nil, fmt.Errorf("diskindex: implausible radius count %d", nr)
	}
	radii := make([]float64, nr)
	for i := range radii {
		if err := binary.Read(br, binary.LittleEndian, &radii[i]); err != nil {
			return nil, fmt.Errorf("diskindex: read radii: %w", err)
		}
		if math.IsNaN(radii[i]) || radii[i] <= 0 {
			return nil, fmt.Errorf("diskindex: invalid radius %v", radii[i])
		}
	}
	params := lsh.Params{
		Config: lsh.Config{C: c, W: w, Rho: rho, Gamma: gamma, Sigma: sigma, MaxRadii: int(maxRadii)},
		N:      int(n), Dim: int(dim), M: int(m), L: int(l), S: int(s),
		P1: p1, P2: p2, Radii: radii,
	}
	opts := Options{Seed: seed, TableBits: uint(tableBits)}
	ix := &Index{
		params: params,
		opts:   opts,
		data:   data,
		store:  store,
		u:      uint(u),
		idBits: uint(idBits),
		upd:    &updState{},
	}
	fams, err := lsh.NewFamilies(params, true, seed)
	if err != nil {
		return nil, err
	}
	ix.families = fams

	ix.tableBase = make([][]blockstore.Addr, params.R())
	for r := 0; r < params.R(); r++ {
		ix.tableBase[r] = make([]blockstore.Addr, params.L)
		for li := 0; li < params.L; li++ {
			var a uint64
			if err := binary.Read(br, binary.LittleEndian, &a); err != nil {
				return nil, fmt.Errorf("diskindex: read table bases: %w", err)
			}
			ix.tableBase[r][li] = blockstore.Addr(a)
		}
	}
	words := (uint64(1)<<ix.u + 63) / 64
	ix.occupied = make([][][]uint64, params.R())
	for r := 0; r < params.R(); r++ {
		ix.occupied[r] = make([][]uint64, params.L)
		for li := 0; li < params.L; li++ {
			bm := make([]uint64, words)
			for wi := range bm {
				if err := binary.Read(br, binary.LittleEndian, &bm[wi]); err != nil {
					return nil, fmt.Errorf("diskindex: read bitmaps: %w", err)
				}
			}
			ix.occupied[r][li] = bm
		}
	}
	if _, err := store.ReadFrom(br); err != nil {
		return nil, err
	}
	return ix, nil
}

// SaveFile writes the index to the named file atomically: the image lands
// in a same-directory temp file, is fsynced, and renamed into place, so a
// crash (or error) mid-save leaves any previous image untouched instead of
// destroying it.
func (ix *Index) SaveFile(path string) error {
	return wal.WriteFileAtomic(path, func(f *os.File) error { return ix.Save(f) })
}

// LoadFile reads an index from the named file into store, restoring its
// blocks from address 1.
func LoadFile(path string, data [][]float32, store *blockstore.Store) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("diskindex: open %s: %w", path, err)
	}
	defer f.Close()
	return Load(f, data, store)
}
