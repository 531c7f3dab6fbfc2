package sched

import (
	"testing"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/iosim"
)

// BenchmarkEngineThroughput measures simulator overhead: virtual events
// processed per wall-clock second for an I/O-heavy workload.
func BenchmarkEngineThroughput(b *testing.B) {
	store := blockstore.NewMem()
	for i := 0; i < 64; i++ {
		a := store.Allocate()
		if err := store.WriteBlock(a, []byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool, _ := iosim.NewPool(iosim.CSSD, 4)
		e, err := New(Config{CPUs: 2, Iface: iosim.SPDK, Pool: pool, Store: store})
		if err != nil {
			b.Fatal(err)
		}
		_, err = e.RunBatch(256, 16, func(q int, tc *Ctx, done func()) {
			remaining := 8
			for j := 0; j < 8; j++ {
				readOne(tc, blockstore.Addr(1+(q+j)%64), func(block []byte) {
					remaining--
					if remaining == 0 {
						done()
					}
				})
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(256*8*2), "virtual-events/op")
}
