package diskindex

import (
	"testing"

	"e2lshos/internal/blockstore"
)

// FuzzUint40RoundTrip checks the packed object-info codec: any 40-bit value
// must survive putUint40/getUint40 unchanged, and the high 24 bits of the
// input must be ignored rather than smeared into neighboring entries.
func FuzzUint40RoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1)<<40 - 1)
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, v uint64) {
		var buf [EntryBytes]byte
		putUint40(buf[:], v)
		if got, want := getUint40(buf[:]), v&(1<<40-1); got != want {
			t.Fatalf("getUint40(putUint40(%#x)) = %#x, want %#x", v, got, want)
		}
	})
}

// FuzzChainRoundTrip writes one hash table's buckets, sized from an
// arbitrary byte stream, through the production packer (writeBuckets: packed
// blocks plus chains for buckets longer than one block) and reads every
// bucket back through the production slot decoder (decodeSlot, span,
// getUint40, unpackEntry), asserting that every (id, fingerprint) pair comes
// back in order — across fuzzed id widths and table bits.
func FuzzChainRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint8(10), uint8(12))
	f.Add([]byte{255, 0, 255, 99, 0x80, 0xc0}, uint8(1), uint8(31))
	f.Add([]byte{200, 7, 250, 13, 0xff}, uint8(14), uint8(16))
	f.Add([]byte{}, uint8(20), uint8(8))
	f.Fuzz(func(t *testing.T, raw []byte, idBitsRaw, uRaw uint8) {
		idBits := uint(idBitsRaw)%20 + 1 // 1..20
		u := uint(uRaw)%31 + 1           // 1..31; fp has 32-u bits
		if idBits+(32-u) > 8*EntryBytes {
			t.Skip("id+fp wider than an object info")
		}
		ix := &Index{store: blockstore.NewMem(), u: u, idBits: idBits}
		// A byte with its top bit clear is a bucket of that many entries; one
		// with it set scales its low bits up to three blocks' worth. A table
		// of 64 buckets is plenty to pack several blocks.
		raw = raw[:min(len(raw), 64)]
		starts := []int32{0}
		for _, b := range raw {
			size := int(b)
			if b&0x80 != 0 {
				size = int(b&0x7f) * 3 * entriesPerBlock / 0x7f
			}
			starts = append(starts, starts[len(starts)-1]+int32(size))
		}
		total := int(starts[len(starts)-1])
		m := min(max(total, 1), 1<<idBits)
		objs := make([]uint32, total)
		for i := range objs {
			objs[i] = uint32(i*7919) % uint32(m)
		}
		hashes := make([]uint32, m)
		for i := range hashes {
			// Any deterministic per-object hash will do; the fingerprint is
			// its high 32-u bits.
			hashes[i] = uint32(i)*2654435761 + 12345
		}
		slots := make([]uint64, len(raw))
		packBuf, chainBuf := make([]byte, blockstore.BlockSize), make([]byte, blockstore.BlockSize)
		if err := ix.writeBuckets(hashes, objs, starts, slots, packBuf, chainBuf); err != nil {
			t.Fatal(err)
		}

		buf := make([]byte, blockstore.BlockSize)
		for b, v := range slots {
			want := objs[starts[b]:starts[b+1]]
			sl := decodeSlot(v)
			if len(want) == 0 {
				if v != 0 {
					t.Fatalf("empty bucket %d has slot %+v", b, sl)
				}
				continue
			}
			var got []uint32
			for w := sl; w.addr != blockstore.Nil; {
				if err := ix.readBlock(w.addr, buf, nil); err != nil {
					t.Fatal(err)
				}
				next, lo, hi := w.span(buf)
				if hi > entriesPerBlock {
					t.Fatalf("bucket %d: block %d holds entries up to %d, a block holds %d", b, w.addr, hi, entriesPerBlock)
				}
				for i := lo; i < hi; i++ {
					id, fp := ix.unpackEntry(getUint40(buf[HeaderBytes+i*EntryBytes:]))
					if want := hashes[id] >> u; fp != want {
						t.Fatalf("object %d: fingerprint %#x, want %#x", id, fp, want)
					}
					got = append(got, id)
				}
				w = slot{addr: next}
			}
			if len(got) != len(want) {
				t.Fatalf("bucket %d decoded %d entries, wrote %d", b, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bucket %d entry %d: decoded id %d, wrote %d", b, i, got[i], want[i])
				}
			}
		}
	})
}
