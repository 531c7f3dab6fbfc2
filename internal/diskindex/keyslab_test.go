package diskindex

import (
	"errors"
	"testing"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/faultinject"
	"e2lshos/internal/memindex"
)

// TestBuildFreesKeySlabs: Build and CheckInvariants free every key slab
// HashKeys gave them before they return, and so does a Build whose store
// write fails midway: memindex's slab counter comes back to its start.
func TestBuildFreesKeySlabs(t *testing.T) {
	start := memindex.KeySlabBytes()
	d, ix, _ := testSetup(t, 2000, 4, DefaultOptions())
	if got := memindex.KeySlabBytes(); got != start {
		t.Fatalf("Build left %d key-slab bytes held", got-start)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := memindex.KeySlabBytes(); got != start {
		t.Fatalf("CheckInvariants left %d key-slab bytes held", got-start)
	}

	// Crash the store half way through the build's block writes.
	c := faultinject.NewCrasher(int(ix.Store().NumBlocks()/2), false)
	c.Arm()
	store := blockstore.NewWithBackend(faultinject.WrapCrash(blockstore.NewMemBackend(), c))
	if _, err := Build(d.Vectors, ix.Params(), DefaultOptions(), store); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("Build on a store that crashes mid-build returned %v, want the crash", err)
	}
	if got := memindex.KeySlabBytes(); got != start {
		t.Fatalf("a failed Build left %d key-slab bytes held", got-start)
	}
}
