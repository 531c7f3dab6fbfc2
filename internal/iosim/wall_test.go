package iosim

import (
	"testing"
	"time"

	"e2lshos/internal/blockstore"
)

func TestWallBackendTimesReads(t *testing.T) {
	inner := blockstore.NewMemBackend()
	// A fast 2-die device: 1ms per read, two in parallel.
	spec := DeviceSpec{Name: "test", Dies: 2, ServiceTime: 1_000_000}
	wall, err := NewWallBackend(inner, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := blockstore.NewWithBackend(wall)
	data := make([]byte, blockstore.BlockSize)
	for i := 0; i < 8; i++ {
		a := st.Allocate()
		data[0] = byte(a)
		if err := st.WriteBlock(a, data); err != nil {
			t.Fatal(err)
		}
	}
	if wall.NumBlocks() != 9 {
		t.Errorf("NumBlocks = %d, want 9", wall.NumBlocks())
	}

	buf := make([]byte, blockstore.BlockSize)
	start := time.Now()
	if err := st.ReadBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Microsecond {
		t.Errorf("QD1 read took %v, want >= ~1ms service time", elapsed)
	}
	if buf[0] != 3 {
		t.Error("wall backend corrupted data")
	}
	if wall.Reads() != 1 || wall.Ops() != 1 {
		t.Errorf("Reads/Ops = %d/%d, want 1/1", wall.Reads(), wall.Ops())
	}

	// A coalesced run of 4 adjacent blocks is one physical op: one service
	// time, not four. The backend counts the service times it charged, so
	// the run is checked on that count; wall time only bounds it from below,
	// since a sleep cannot end early but may end late on a loaded machine.
	addrs := []blockstore.Addr{1, 2, 3, 4}
	bufs := make([][]byte, len(addrs))
	for i := range bufs {
		bufs[i] = make([]byte, blockstore.BlockSize)
	}
	start = time.Now()
	nops, err := st.ReadBlocks(addrs, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Microsecond {
		t.Errorf("coalesced run took %v, want >= ~1ms service time", elapsed)
	}
	if nops != 1 {
		t.Errorf("coalesced run took %d ops, want 1", nops)
	}
	for i, a := range addrs {
		if bufs[i][0] != byte(a) {
			t.Errorf("block %d corrupted", a)
		}
	}
	// Ops counts service times: one for the QD1 read, one for the run.
	if wall.Reads() != 5 || wall.Ops() != 2 {
		t.Errorf("Reads/Ops = %d/%d, want 5/2", wall.Reads(), wall.Ops())
	}
}

func TestWallBackendValidation(t *testing.T) {
	if _, err := NewWallBackend(blockstore.NewMemBackend(), DeviceSpec{Name: "bad"}, 1); err == nil {
		t.Error("invalid spec accepted")
	}
	// Non-positive scale falls back to 1.
	w, err := NewWallBackend(blockstore.NewMemBackend(), CSSD, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.scale != 1 {
		t.Errorf("scale = %v, want 1", w.scale)
	}
}
