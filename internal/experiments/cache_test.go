package experiments

import (
	"testing"
)

// TestCacheSweepMonotonicMissRate is the cachesweep acceptance property:
// the sequential engine's miss rate decreases monotonically as the cache
// grows (on this deterministic, repeated stream; 2Q has no inclusion
// property that would guarantee it on every stream), the effective N_IO never
// exceeds the uncached baseline, and a full-index cache on a repeated
// workload cuts backend reads by well over 2x.
func TestCacheSweepMonotonicMissRate(t *testing.T) {
	env := testEnv()
	res, err := CacheSweep(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(cacheSweepFracs) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(cacheSweepFracs))
	}
	if res.LogicalNIO <= 0 {
		t.Fatal("uncached baseline did no I/O; sweep is vacuous")
	}
	for i, row := range res.Rows {
		if i > 0 {
			prev := res.Rows[i-1]
			if row.CacheBytes <= prev.CacheBytes {
				t.Fatalf("rows not ordered by cache size: %d then %d", prev.CacheBytes, row.CacheBytes)
			}
			if row.SeqMissRate > prev.SeqMissRate+1e-12 {
				t.Errorf("seq miss rate rose with cache size: %.4f @ %dB -> %.4f @ %dB",
					prev.SeqMissRate, prev.CacheBytes, row.SeqMissRate, row.CacheBytes)
			}
		}
		if row.SeqNIO > res.LogicalNIO+1e-9 {
			t.Errorf("cached N_IO %.2f above uncached %.2f at %d bytes", row.SeqNIO, res.LogicalNIO, row.CacheBytes)
		}
		if row.ParNIO > res.LogicalNIO+1e-9 {
			t.Errorf("parallel cached N_IO %.2f above uncached %.2f at %d bytes", row.ParNIO, res.LogicalNIO, row.CacheBytes)
		}
		if row.SeqMissRate < 0 || row.SeqMissRate > 1 || row.ParMissRate < 0 || row.ParMissRate > 1 {
			t.Errorf("miss rate outside [0,1]: %+v", row)
		}
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if !(last.SeqMissRate < first.SeqMissRate) {
		t.Errorf("miss rate did not decrease across the sweep: %.4f -> %.4f", first.SeqMissRate, last.SeqMissRate)
	}
	// The acceptance bar: a whole-index cache on a 3x-repeated workload
	// must cut backend reads by at least 2x vs uncached.
	if last.SeqNIO*2 > res.LogicalNIO {
		t.Errorf("full cache saved too little: effective N_IO %.2f vs uncached %.2f (want >=2x fewer)",
			last.SeqNIO, res.LogicalNIO)
	}
	if last.ParNIO*2 > res.LogicalNIO {
		t.Errorf("full cache (parallel engine) saved too little: %.2f vs %.2f", last.ParNIO, res.LogicalNIO)
	}
	if len(res.Render()) != 1 {
		t.Error("cachesweep should render one table")
	}
}
