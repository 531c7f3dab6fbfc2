package diskindex

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/dataset"
	"e2lshos/internal/lsh"
)

// imageDigest is the SHA-256 of the saved n=20000, d=128 index below,
// recorded with the portable Go projection and hash loops.
const imageDigest = "01f08641d448ad21b81cb1a36fee4cba099fdc5ec267827b3d077ccaede20bc6"

// TestImageDigest pins every byte of a built index's image — header, table
// bitmaps and the block store's WriteTo bytes, which hold every hash the
// build computed — at n=20000, d=128, shared and per-radius families. It
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
	for _, share := range []bool{true, false} {
		opts := DefaultOptions()
		opts.ShareProjections = share
		ix, err := Build(d.Vectors, p, opts, blockstore.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Save(h); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != imageDigest {
		t.Fatalf("index image digest %s, want %s (L=%d M=%d radii=%d)", got, imageDigest, p.L, p.M, p.R())
	}
}
