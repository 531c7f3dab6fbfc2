package memindex

import (
	"testing"
)

// TestKeySlabsFreed: HashKeys holds one slab of L·n keys per radius, with
// every table's keys equal to the families' hashes; Free(r) releases radius
// r's slab once however often it is called, FreeAll the rest, and Build
// leaves no slab behind. KeySlabBytes must come back to where it started.
func TestKeySlabsFreed(t *testing.T) {
	start := KeySlabBytes()
	d, ix := testSetup(t, 600, true)
	if got := KeySlabBytes(); got != start {
		t.Fatalf("Build left %d key-slab bytes held", got-start)
	}
	p := ix.params
	keys, err := HashKeys(d.Vectors, ix.families, p, true)
	if err != nil {
		t.Fatal(err)
	}
	slab := int64(p.L * d.N() * 4)
	if got := KeySlabBytes() - start; got != int64(p.R())*slab {
		t.Fatalf("HashKeys holds %d bytes, want %d slabs of %d", got, p.R(), slab)
	}
	proj := make([]float64, p.L*p.M)
	hashes := make([]uint32, p.L)
	for _, id := range []int{0, 1, d.N() / 2, d.N() - 1} {
		ix.families[0].Project(d.Vectors[id], proj)
		for r := 0; r < p.R(); r++ {
			ix.families[0].HashesAt(proj, p.Radii[r], hashes)
			for l := 0; l < p.L; l++ {
				if got := keys.Table(r, l)[id]; got != hashes[l] {
					t.Fatalf("object %d at (%d,%d): key %#x, hash %#x", id, r, l, got, hashes[l])
				}
			}
		}
	}
	keys.Free(0)
	keys.Free(0)
	if got := KeySlabBytes() - start; got != int64(p.R()-1)*slab {
		t.Fatalf("after freeing radius 0 twice: %d bytes held, want %d", got, int64(p.R()-1)*slab)
	}
	keys.FreeAll()
	if got := KeySlabBytes(); got != start {
		t.Fatalf("FreeAll left %d key-slab bytes held", got-start)
	}

	// The same with independent families per radius.
	p2 := lshParamsFor(t, d)
	if _, err := Build(d.Vectors, p2, Options{ShareProjections: false, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if got := KeySlabBytes(); got != start {
		t.Fatalf("Build without shared projections left %d key-slab bytes held", got-start)
	}
}
