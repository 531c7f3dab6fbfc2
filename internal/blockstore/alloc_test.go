//go:build !race

package blockstore

import (
	"path/filepath"
	"testing"
)

// TestFileReadBlocksZeroAllocs: a warmed vectored read whose runs span
// several blocks lands each coalesced pread in pooled scratch, so it
// allocates nothing. (Skipped under the race detector, whose sync.Pool drops
// items at random.)
func TestFileReadBlocksZeroAllocs(t *testing.T) {
	s, f, err := OpenFile(filepath.Join(t.TempDir(), "alloc.blk"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fillStore(t, s, 3*MaxCoalesce)
	// A full MaxCoalesce run, a 3-block run and a lone block.
	var addrs []Addr
	for a := Addr(1); a <= MaxCoalesce; a++ {
		addrs = append(addrs, a)
	}
	addrs = append(addrs, 2*MaxCoalesce, 2*MaxCoalesce+1, 2*MaxCoalesce+2, 3*MaxCoalesce)
	bufs := make([][]byte, len(addrs))
	for i := range bufs {
		bufs[i] = make([]byte, BlockSize)
	}
	read := func() {
		if ops, err := s.ReadBlocks(addrs, bufs); err != nil || ops != 3 {
			t.Fatalf("ReadBlocks = %d ops, %v; want 3 ops", ops, err)
		}
	}
	read()
	for i, a := range addrs {
		checkPayload(t, a, bufs[i])
	}
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("warmed multi-block ReadBlocks: %v allocs per call, want 0", n)
	}
}
