package e2lshos

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"e2lshos/internal/ann"
)

// serialRMin is estimateRMin as thirty serial brute-force scans: the
// reference the one-pass estimate must reproduce.
func serialRMin(data [][]float32, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	samples := min(30, len(data))
	var dists []float64
	for i := 0; i < samples; i++ {
		res := ann.BruteForce(data, data[rng.Intn(len(data))], 2)
		if len(res.Neighbors) > 1 && res.Neighbors[1].Dist > 0 {
			dists = append(dists, res.Neighbors[1].Dist)
		}
	}
	if len(dists) == 0 {
		return 1
	}
	sort.Float64s(dists)
	return dists[len(dists)/20]
}

// TestEstimateRMinMatchesSerialScans: the tiled, parallel 2-NN pass picks
// the same starting radius, bit for bit, as one brute-force scan per sample.
func TestEstimateRMinMatchesSerialScans(t *testing.T) {
	for _, d := range []*Dataset{parityDataset(t), shardsDataset(t)} {
		for _, seed := range []int64{1, 9} {
			got, want := estimateRMin(d.Vectors, seed), serialRMin(d.Vectors, seed)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s seed %d: estimateRMin = %v, serial scans %v", d.Name, seed, got, want)
			}
		}
	}
}
