// Billion-scale trajectory: the sublinearity argument of the paper's Fig 14
// in miniature. Query time is measured over doubling database sizes for
// E2LSHoS and the linear-time SRS baseline; the widening gap is exactly why
// the paper argues large-index LSH is worth its storage.
package main

import (
	"context"
	"fmt"
	"log"

	"e2lshos"
	"e2lshos/internal/costmodel"
	"e2lshos/internal/dataset"
	"e2lshos/internal/experiments"
	"e2lshos/internal/srs"
)

func main() {
	ctx := context.Background()

	// One BIGANN-like clone, then nested subsets of it.
	const maxN = 64000
	spec, err := dataset.PaperSpec(dataset.BIGANN, 0, maxN, 40)
	if err != nil {
		log.Fatal(err)
	}
	spec.N = maxN
	full, err := dataset.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %18s %18s %10s\n", "n", "E2LSHoS ms/query", "SRS ms/query", "gap")
	for n := maxN / 8; n <= maxN; n *= 2 {
		sub := full.Subset(n)
		// WithIOEngine fixes the queue depth the submission path sustains;
		// the simulated capacity math below interleaves that many query
		// contexts, so the trajectory reflects a device actually driven at
		// depth rather than one blocking read at a time.
		ix, err := e2lshos.NewStorageIndex(sub.Vectors, e2lshos.Config{Sigma: 16}, e2lshos.WithIOEngine(32))
		if err != nil {
			log.Fatal(err)
		}
		rep, err := ix.Simulate(sub.Queries, e2lshos.SimulationConfig{
			Device: e2lshos.XLFlashDrive, Devices: 12, Iface: e2lshos.XLFDDInterface,
		})
		if err != nil {
			log.Fatal(err)
		}

		// SRS at a comparable accuracy: T' = 2% of n with the chi-square
		// early stop off, timed with the same virtual cost model the
		// simulator charges.
		srsCfg := srs.DefaultConfig()
		srsIx, err := srs.Build(sub.Vectors, srsCfg)
		if err != nil {
			log.Fatal(err)
		}
		searcher := srsIx.NewSearcher()
		model := costmodel.Default()
		var srsNS float64
		for _, q := range sub.Queries {
			_, st, err := searcher.SearchContext(ctx, q, 1, n/50, false)
			if err != nil {
				log.Fatal(err)
			}
			srsNS += experiments.SRSQueryNS(model, sub.Dim, srsCfg.ProjDim, st)
		}
		srsMS := srsNS / float64(sub.NQ()) / 1e6

		fmt.Printf("%-10d %18.3f %18.3f %9.1fx\n", n, rep.QueryTimeMS, srsMS, srsMS/rep.QueryTimeMS)
	}
	fmt.Println("\nE2LSHoS grows sublinearly with n while SRS grows linearly:")
	fmt.Println("doubling the database roughly doubles SRS time but barely moves E2LSHoS.")
}
