// Benchmarks regenerating every table and figure of the paper. Each bench
// runs the corresponding experiment end to end at a reduced scale (DESIGN.md
// maps ids to paper artifacts; EXPERIMENTS.md records harness-scale output)
// and reports the experiment's headline number as a custom metric.
//
// Run all:   go test -bench=. -benchmem
// Run one:   go test -bench=BenchmarkFig11 -benchmem
package e2lshos

import (
	"context"
	"strings"
	"sync"
	"testing"

	"e2lshos/internal/dataset"
	"e2lshos/internal/experiments"
)

// benchEnv is shared across benchmarks so dataset clones and indexes are
// built once. The scale keeps any single bench iteration under a couple of
// seconds.
var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
)

func benchEnv() *experiments.Env {
	benchEnvOnce.Do(func() {
		env := experiments.DefaultEnv()
		env.Scale = 0
		env.MinN = 4000
		env.MaxN = 4000
		env.Queries = 20
		env.Sigmas = []float64{0.5, 2, 8, 32, 128}
		env.SRSBudgetFracs = []float64{0.001, 0.005, 0.02, 0.1, 0.2}
		benchEnvVal = env
	})
	return benchEnvVal
}

func BenchmarkTable1Datasets(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Name == string(dataset.SIFT) {
					b.ReportMetric(row.RC, "SIFT-RC")
				}
			}
		}
	}
}

func BenchmarkTable2Devices(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Rows[0].KIOPSQD128, "cSSD-kIOPS@QD128")
		}
	}
}

func BenchmarkTable3Interfaces(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4IOCounts(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Dataset == string(dataset.SIFT) {
					b.ReportMetric(row.IOsInf, "SIFT-N_IO-inf")
				}
			}
		}
	}
}

func BenchmarkTable5Configs(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6IndexSize(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table6(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Dataset == string(dataset.SIFT) {
					b.ReportMetric(float64(row.DiskIndexStorage)/(1<<20), "SIFT-index-MiB")
				}
			}
		}
	}
}

func BenchmarkFig2Speedup(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Dataset == string(dataset.SIFT) {
					b.ReportMetric(row.SpeedupOverSRS, "SIFT-speedup-vs-SRS")
				}
			}
		}
	}
}

func BenchmarkFig3IOCount(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.IOs[512][2], "N_IO@1.05-B512")
		}
	}
}

func BenchmarkFig4IOPSReq(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range res.Series {
				if s.Label == "B=512" {
					b.ReportMetric(s.KIOPS[2], "kIOPS-req@1.05")
				}
			}
		}
	}
}

func BenchmarkFig5IOPSReq(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6TopK(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7IOPSReq(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range res.Series {
				if strings.HasPrefix(s.Label, "SIFT") {
					b.ReportMetric(s.KIOPS[2], "SIFT-kIOPS-req@1.05")
				}
			}
		}
	}
}

func BenchmarkFig8TopK(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Configs(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, g := range res.Groups {
				if strings.HasPrefix(g.Label, "Group 6") {
					b.ReportMetric(g.Speedup[len(g.Speedup)/2], "XLFDD-speedup-vs-SRS")
				}
			}
		}
	}
}

func BenchmarkFig12IOCost(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Setup == "io_uring" {
					b.ReportMetric(row.IOCostMS*1000, "io_uring-IOcost-us")
				}
			}
		}
	}
}

func BenchmarkFig13Speedups(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14Sublinear(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Rows) > 0 {
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.SRSMS/last.DiskMS, "SRS/E2LSHoS-at-max-n")
		}
	}
}

func BenchmarkFig15Devices(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Rows[0].QueriesPerSec, "qps@1-cSSD")
		}
	}
}

func BenchmarkFig16Threads(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.DiskXLFDDQPS, "XLFDD-qps@32-threads")
		}
	}
}

func BenchmarkShardsServing(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Shards(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.QueriesPerSec, "qps@max-shards")
			b.ReportMetric(last.Speedup, "speedup@max-shards")
		}
	}
}

func BenchmarkSyncVsAsync(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.SyncComparison(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Slowdown, "sync-slowdown")
			b.ReportMetric(res.PageMissRate*100, "page-miss-%")
		}
	}
}

func BenchmarkCacheSweep(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CacheSweep(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
			b.ReportMetric(res.LogicalNIO, "uncached-NIO/query")
			b.ReportMetric(first.SeqMissRate*100, "miss-%@smallest")
			b.ReportMetric(last.SeqMissRate*100, "miss-%@full")
			b.ReportMetric(last.SeqNIO, "effective-NIO/query@full")
		}
	}
}

func BenchmarkQDSweep(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.QDSweep(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
			b.ReportMetric(first.DeviceIOPS/1000, "kIOPS@QD1")
			b.ReportMetric(last.DeviceIOPS/1000, "kIOPS@QDmax")
			b.ReportMetric(last.QPS/first.QPS, "QPS-gain@QDmax")
		}
	}
}

// benchRepeatedQueries measures the serving-shaped repeated workload: each
// iteration is one full BatchSearch pass over the held-out queries. The
// backend-reads/query metric is the effective N_IO: with the cache it
// collapses after the cold pass, without it every pass pays full price: the
// pair shows the ≥2x saving.
func benchRepeatedQueries(b *testing.B, opts ...StorageOption) {
	d, err := GeneratePaperDataset(SIFT, 0, 4000, 20)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 8}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var logical, backend int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := ix.BatchSearch(ctx, d.Queries)
		if err != nil {
			b.Fatal(err)
		}
		logical += int64(st.IOs())
		if st.CacheHits+st.CacheMisses > 0 {
			// Backend reads = demand misses + prefetch fetches: readahead
			// moves reads off the demand path but the device still serves
			// them, so they must count against the saving.
			backend += int64(st.CacheMisses + st.PrefetchedBlocks)
		} else {
			backend += int64(st.IOs())
		}
	}
	queries := float64(b.N * d.NQ())
	b.ReportMetric(float64(logical)/queries, "logical-NIO/query")
	b.ReportMetric(float64(backend)/queries, "backend-reads/query")
}

// BenchmarkSearchLatencyQuantiles runs the single-query serving path with
// telemetry on and reports the measured latency distribution: p50-ns/op and
// p99-ns/op next to the ns/op mean.
func BenchmarkSearchLatencyQuantiles(b *testing.B) {
	d, err := GeneratePaperDataset(SIFT, 0, 4000, 20)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 8}, WithBlockCache(64<<20))
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.EnableTelemetry(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search(ctx, d.Queries[i%d.NQ()], WithK(10)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, row := range ix.TelemetryReport() {
		if row.Stage == "total" {
			b.ReportMetric(float64(row.P50), "p50-ns/op")
			b.ReportMetric(float64(row.P99), "p99-ns/op")
		}
	}
}

func BenchmarkRepeatedQueriesUncached(b *testing.B) {
	benchRepeatedQueries(b)
}

func BenchmarkRepeatedQueriesCached(b *testing.B) {
	benchRepeatedQueries(b, WithBlockCache(64<<20), WithReadahead(2))
}

// benchInsert measures the online-insert path: ns per durable Insert with
// the WAL on (append + fsync + block apply) versus the raw in-place update.
// The index rebuilds with the timer stopped whenever the ID headroom
// (2^idBits - n) runs out; mkOpts runs per build so the WAL variant gets a
// fresh directory each time.
func benchInsert(b *testing.B, mkOpts func() []StorageOption) {
	d, err := GeneratePaperDataset(SIFT, 0, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	base := d.Vectors[:3500]
	spare := d.Vectors[3500:]
	var ix *StorageIndex
	left := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if left == 0 {
			b.StopTimer()
			ix, err = NewStorageIndex(base, Config{Sigma: 8}, mkOpts()...)
			if err != nil {
				b.Fatal(err)
			}
			left = len(spare)
			b.StartTimer()
		}
		if _, err := ix.Insert(spare[len(spare)-left]); err != nil {
			b.Fatal(err)
		}
		left--
	}
}

func BenchmarkInsertWALOn(b *testing.B) {
	benchInsert(b, func() []StorageOption { return []StorageOption{WithWAL(b.TempDir())} })
}

func BenchmarkInsertWALOff(b *testing.B) {
	benchInsert(b, func() []StorageOption { return nil })
}

// BenchmarkAutotuneSweep runs the PR-8 recall-target sweep end to end and
// reports the headline trade: mean N_IO at the 0.9 target against the
// full-ladder baseline, plus the retained recall the stop kept.
func BenchmarkAutotuneSweep(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AutotuneSweep(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			base := res.Rows[len(res.Rows)-1]
			for _, row := range res.Rows {
				if row.RecallTarget == 0.9 {
					b.ReportMetric(row.MeanIO, "N_IO@target0.9")
					b.ReportMetric(row.Retained, "retained@target0.9")
					b.ReportMetric(base.MeanIO, "N_IO-full-ladder")
				}
			}
		}
	}
}
