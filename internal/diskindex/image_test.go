package diskindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/dataset"
	"e2lshos/internal/lsh"
)

// imageDigest is the SHA-256 of the saved n=20000, d=128 index below,
// recorded with the portable Go projection and hash loops.
const imageDigest = "5572c42e030e255a04a2abbd1f6b6cd928df14bc5bb5e5f3d5ace55b46ca075c"

// TestImageDigest pins every byte of a built index's image — header, table
// bitmaps and the block store's WriteTo bytes, which hold every hash the
// build computed — at n=20000, d=128. It
// runs with the AVX-512 projection and hash kernels where the CPU has them
// and without them under the purego tag (CI's purego step): both builds
// must write the same image.
func TestImageDigest(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "image", N: 20000, Queries: 1, Dim: 128,
		Clusters: 16, Spread: 0.05, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lsh.DefaultConfig()
	cfg.Sigma = 8
	p, err := lsh.Derive(cfg, d.N(), d.Dim, 0.3, lsh.MaxRadius(d.MaxAbs(), d.Dim))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	ix, err := Build(d.Vectors, p, DefaultOptions(), blockstore.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != imageDigest {
		t.Fatalf("index image digest %s, want %s (L=%d M=%d radii=%d)", got, imageDigest, p.L, p.M, p.R())
	}
}

// TestLoadRefusesVersion1 checks that an image written with one block per
// bucket (version 1) is refused with an error that names the version, not
// decoded as slots it does not hold.
func TestLoadRefusesVersion1(t *testing.T) {
	d, ix := buildUpdatable(t, 300, 0)
	var img bytes.Buffer
	if err := ix.Save(&img); err != nil {
		t.Fatal(err)
	}
	b := img.Bytes()
	binary.LittleEndian.PutUint32(b[len(indexMagic):], 1)
	_, err := Load(bytes.NewReader(b), d.Vectors[:300], blockstore.NewMem())
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Load of a version 1 image: %v, want a version 1 refusal", err)
	}
}

// TestLoadRefusesOtherBucketBlocks checks that an image whose header records
// bucket blocks of other than one 512-byte store block is refused by Load
// and LoadFile with an error naming both sizes.
func TestLoadRefusesOtherBucketBlocks(t *testing.T) {
	d, ix := buildUpdatable(t, 300, 0)
	var img bytes.Buffer
	if err := ix.Save(&img); err != nil {
		t.Fatal(err)
	}
	b := img.Bytes()
	const bucketBytesOff = 125 // magic, version, config, params, share, seed, table bits
	if got := binary.LittleEndian.Uint64(b[bucketBytesOff:]); got != blockstore.BlockSize {
		t.Fatalf("header bucket-bytes field holds %d, want %d", got, blockstore.BlockSize)
	}
	binary.LittleEndian.PutUint64(b[bucketBytesOff:], 4096)
	refused := func(which string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "4096") || !strings.Contains(err.Error(), "512") {
			t.Fatalf("%s of a 4096-byte bucket image: %v, want a refusal naming 4096 and 512", which, err)
		}
	}
	_, err := Load(bytes.NewReader(b), d.Vectors[:300], blockstore.NewMem())
	refused("Load", err)
	path := filepath.Join(t.TempDir(), "index.e2ix")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadFile(path, d.Vectors[:300], blockstore.NewMem())
	refused("LoadFile", err)
}

// TestLoadRefusesPerRadiusFamilies checks that an image whose share byte is 0
// — built with a hash family per radius — is refused with an error naming
// the byte, not served with one family's hashes against another's tables.
func TestLoadRefusesPerRadiusFamilies(t *testing.T) {
	d, ix := buildUpdatable(t, 300, 0)
	var img bytes.Buffer
	if err := ix.Save(&img); err != nil {
		t.Fatal(err)
	}
	b := img.Bytes()
	const shareOff = 112 // magic, version, config, params
	if b[shareOff] != 1 {
		t.Fatalf("header share byte holds %d, want 1", b[shareOff])
	}
	b[shareOff] = 0
	_, err := Load(bytes.NewReader(b), d.Vectors[:300], blockstore.NewMem())
	if err == nil || !strings.Contains(err.Error(), "share byte 0") {
		t.Fatalf("Load of a share=0 image: %v, want a refusal naming the share byte", err)
	}
}
