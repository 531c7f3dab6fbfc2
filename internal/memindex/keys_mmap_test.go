//go:build unix && !race

package memindex

import (
	"runtime"
	"testing"
)

// TestKeySlabsOffHeap: on unix the build's keys are mapped outside the Go
// heap, so holding them grows the live heap by a small fraction of their
// size.
func TestKeySlabsOffHeap(t *testing.T) {
	d, ix := testSetup(t, 20000, true)
	fams, p := ix.families, ix.params // the index itself may go before the baseline
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	keys, err := HashKeys(d.Vectors, fams, p, true)
	if err != nil {
		t.Fatal(err)
	}
	defer keys.FreeAll()
	held := KeySlabBytes()
	grew := int64(liveHeap()) - int64(before)
	t.Logf("%d bytes of keys held; live heap grew by %d bytes", held, grew)
	if grew > held/8 {
		t.Errorf("holding %d bytes of keys grew the live heap by %d bytes", held, grew)
	}
	runtime.KeepAlive(d)
}
