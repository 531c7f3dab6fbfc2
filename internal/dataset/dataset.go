// Package dataset provides the evaluation datasets for the reproduction.
//
// The paper evaluates on eight widely-used datasets (Table 1): MSONG, SIFT,
// GIST, RAND, GLOVE, GAUSS, MNIST and BIGANN. The raw files are not
// redistributable, so this package generates synthetic clones: Gaussian
// mixtures with per-dataset cluster counts, spreads and value quantization
// chosen so that each clone matches the original's dimensionality, value type
// and — importantly — its *hardness ordering* under the Relative Contrast
// (RC) and Local Intrinsic Dimensionality (LID) proxies the paper reports.
// See DESIGN.md for the substitution rationale.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"e2lshos/internal/ann"
	"e2lshos/internal/vecmath"
)

// ValueType describes the coordinate representation of the original dataset.
// Clones always hold float32 coordinates in memory; ByteValues clones are
// quantized to integers in [0,255] first, like SIFT/MNIST/BIGANN.
type ValueType int

const (
	// FloatValues marks datasets with real-valued coordinates.
	FloatValues ValueType = iota
	// ByteValues marks datasets whose coordinates are 8-bit integers.
	ByteValues
)

// String implements fmt.Stringer.
func (v ValueType) String() string {
	if v == ByteValues {
		return "byte"
	}
	return "float"
}

// Dataset is an in-memory point set with an accompanying query set. Vectors
// and Queries are views into contiguous slabs, so iterating them is
// cache-friendly and the GC sees only two backing arrays.
type Dataset struct {
	Name      string
	Dim       int
	Values    ValueType
	Vectors   [][]float32
	Queries   [][]float32
	slab      []float32
	querySlab []float32
}

// N returns the number of database objects.
func (d *Dataset) N() int { return len(d.Vectors) }

// NQ returns the number of queries.
func (d *Dataset) NQ() int { return len(d.Queries) }

// Bytes returns the in-memory size of the database vectors (the paper's
// "database size" component of runtime memory usage).
func (d *Dataset) Bytes() int64 {
	return int64(d.N()) * int64(d.Dim) * 4
}

// MaxAbs returns the maximum absolute coordinate, the x_max in the paper's
// R_max = 2·x_max·√d bound.
func (d *Dataset) MaxAbs() float64 {
	return vecmath.MaxAbs(d.Vectors)
}

// Spec describes a synthetic dataset to generate.
type Spec struct {
	Name     string
	N        int // database size
	Queries  int // query-set size
	Dim      int
	Values   ValueType
	Clusters int     // number of mixture components; 0 means unclustered
	Spread   float64 // within-cluster standard deviation (relative to unit cube)
	Noise    float64 // fraction of points drawn uniformly instead of from a cluster
	Uniform  bool    // draw all points uniformly in [0,1]^d (RAND)
	Gaussian bool    // draw all points i.i.d. N(0,1)^d (GAUSS)
	Seed     int64
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	switch {
	case s.N <= 0:
		return fmt.Errorf("dataset: spec %q: N must be positive, got %d", s.Name, s.N)
	case s.Dim <= 0:
		return fmt.Errorf("dataset: spec %q: Dim must be positive, got %d", s.Name, s.Dim)
	case s.Queries < 0:
		return fmt.Errorf("dataset: spec %q: Queries must be non-negative, got %d", s.Name, s.Queries)
	case s.Noise < 0 || s.Noise > 1:
		return fmt.Errorf("dataset: spec %q: Noise must be in [0,1], got %v", s.Name, s.Noise)
	case s.Uniform && s.Gaussian:
		return fmt.Errorf("dataset: spec %q: Uniform and Gaussian are mutually exclusive", s.Name)
	case !s.Uniform && !s.Gaussian && s.Clusters <= 0:
		return fmt.Errorf("dataset: spec %q: clustered spec needs Clusters > 0", s.Name)
	}
	return nil
}

// Generate materializes the spec. Queries are drawn from the same
// distribution as the database, mirroring the paper's use of the query sets
// that accompany each dataset.
func Generate(spec Spec) (*Dataset, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	d := &Dataset{
		Name:   spec.Name,
		Dim:    spec.Dim,
		Values: spec.Values,
	}
	total := spec.N + spec.Queries
	d.slab = make([]float32, spec.N*spec.Dim)
	d.querySlab = make([]float32, spec.Queries*spec.Dim)

	var centers [][]float64
	if !spec.Uniform && !spec.Gaussian {
		centers = make([][]float64, spec.Clusters)
		for i := range centers {
			c := make([]float64, spec.Dim)
			for j := range c {
				c[j] = rng.Float64()
			}
			centers[i] = c
		}
	}

	point := make([]float64, spec.Dim)
	for i := 0; i < total; i++ {
		samplePoint(rng, spec, centers, point)
		var dst []float32
		if i < spec.N {
			dst = d.slab[i*spec.Dim : (i+1)*spec.Dim]
		} else {
			q := i - spec.N
			dst = d.querySlab[q*spec.Dim : (q+1)*spec.Dim]
		}
		quantizeInto(dst, point, spec.Values)
	}

	d.Vectors = sliceViews(d.slab, spec.N, spec.Dim)
	d.Queries = sliceViews(d.querySlab, spec.Queries, spec.Dim)
	return d, nil
}

// samplePoint draws one point of the spec's distribution into out.
func samplePoint(rng *rand.Rand, spec Spec, centers [][]float64, out []float64) {
	switch {
	case spec.Uniform:
		for j := range out {
			out[j] = rng.Float64()
		}
	case spec.Gaussian:
		for j := range out {
			out[j] = rng.NormFloat64()
		}
	default:
		if spec.Noise > 0 && rng.Float64() < spec.Noise {
			for j := range out {
				out[j] = rng.Float64()
			}
			return
		}
		c := centers[rng.Intn(len(centers))]
		for j := range out {
			out[j] = c[j] + rng.NormFloat64()*spec.Spread
		}
	}
}

// quantizeInto writes the float64 point into dst, applying byte quantization
// when the value type asks for it. Byte datasets are mapped from the
// generator's typical range into [0,255] and rounded, reproducing the integer
// grid structure of SIFT-like data.
func quantizeInto(dst []float32, src []float64, v ValueType) {
	if v == ByteValues {
		for j, x := range src {
			q := math.Round(clamp(x, -1, 2)*85 + 85) // [-1,2] -> [0,255]
			dst[j] = float32(q)
		}
		return
	}
	for j, x := range src {
		dst[j] = float32(x)
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func sliceViews(slab []float32, n, dim int) [][]float32 {
	views := make([][]float32, n)
	for i := range views {
		views[i] = slab[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return views
}

// GroundTruth computes exact top-k results for every query by parallel brute
// force. The result order matches the query order.
func GroundTruth(d *Dataset, k int) []ann.Result { return KNN(d.Vectors, d.Queries, k) }

// KNN returns ann.BruteForce(data, q, k) for every query q, in query order,
// in one tiled, parallel pass.
//
// A worker takes a block of queries at a time and scans the database in
// tiles of knnTile vectors, every query of the block over one tile before
// the next tile: the tile is read from memory once per block instead of once
// per query. Blocks hold up to 32 queries, fewer when that would leave a
// processor idle (30 queries on 2 processors run as two blocks of 15). Each
// query still meets the vectors in database order with its own accumulator,
// so every result is ann.BruteForce's, distance bits and ties included.
func KNN(data, queries [][]float32, k int) []ann.Result {
	const knnTile = 256
	results := make([]ann.Result, len(queries))
	procs := runtime.GOMAXPROCS(0)
	block := min(32, max(1, (len(queries)+procs-1)/procs))
	blocks := (len(queries) + block - 1) / block
	var wg sync.WaitGroup
	workers := min(procs, blocks)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := range next {
				qs := queries[lo:min(lo+block, len(queries))]
				tops := make([]*ann.TopK, len(qs))
				for qi := range tops {
					tops[qi] = ann.NewTopK(k)
				}
				for t0 := 0; t0 < len(data); t0 += knnTile {
					tile := data[t0:min(t0+knnTile, len(data))]
					for qi, q := range qs {
						tops[qi].Scan(tile, t0, q)
					}
				}
				for qi, t := range tops {
					results[lo+qi] = t.Result()
				}
			}
		}()
	}
	for b := 0; b < blocks; b++ {
		next <- b * block
	}
	close(next)
	wg.Wait()
	return results
}

// RelativeContrast estimates the RC hardness proxy of He et al. (Table 1):
// the ratio of the mean distance from a query to a random database object
// over the mean distance to its nearest neighbor. Values near 1 mean hard;
// large values mean easy. It samples at most sampleQ queries and samplePts
// database points.
func RelativeContrast(d *Dataset, sampleQ, samplePts int, seed int64) float64 {
	if d.NQ() == 0 || d.N() == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	if sampleQ > d.NQ() {
		sampleQ = d.NQ()
	}
	if samplePts > d.N() {
		samplePts = d.N()
	}
	var meanSum, nnSum float64
	for i := 0; i < sampleQ; i++ {
		q := d.Queries[rng.Intn(d.NQ())]
		var s vecmath.Stats
		nn := math.Inf(1)
		for j := 0; j < samplePts; j++ {
			dist := vecmath.Dist(d.Vectors[rng.Intn(d.N())], q)
			s.Add(dist)
			if dist < nn && dist > 0 {
				nn = dist
			}
		}
		// Refine the NN over the full database for small n (cheap) so the RC
		// denominator is exact rather than a sampled minimum.
		if d.N() <= 200000 {
			res := ann.BruteForce(d.Vectors, q, 1)
			if len(res.Neighbors) > 0 && res.Neighbors[0].Dist > 0 {
				nn = res.Neighbors[0].Dist
			}
		}
		if math.IsInf(nn, 1) || nn == 0 {
			continue
		}
		meanSum += s.Mean()
		nnSum += nn
	}
	if nnSum == 0 {
		return 0
	}
	return meanSum / nnSum
}

// LocalIntrinsicDimensionality estimates LID by the maximum-likelihood
// estimator of Amsaleg et al. (Table 1) averaged over sampled queries:
//
//	LID(q) = -( (1/k) Σ_{i=1..k-1} ln(r_i / r_k) )^{-1}
//
// where r_i is the distance from q to its i-th nearest neighbor. Larger LID
// means harder.
func LocalIntrinsicDimensionality(d *Dataset, k, sampleQ int, seed int64) float64 {
	if d.NQ() == 0 || d.N() < k || k < 2 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	if sampleQ > d.NQ() {
		sampleQ = d.NQ()
	}
	var sum float64
	var count int
	for i := 0; i < sampleQ; i++ {
		q := d.Queries[rng.Intn(d.NQ())]
		res := ann.BruteForce(d.Vectors, q, k)
		rk := res.Neighbors[len(res.Neighbors)-1].Dist
		if rk == 0 {
			continue
		}
		var acc float64
		valid := 0
		for _, nb := range res.Neighbors[:len(res.Neighbors)-1] {
			if nb.Dist <= 0 {
				continue
			}
			acc += math.Log(nb.Dist / rk)
			valid++
		}
		if valid == 0 || acc == 0 {
			continue
		}
		lid := -1 / (acc / float64(valid+1))
		sum += lid
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// NNDistanceQuantile returns the q-quantile (0..1) of nearest-neighbor
// distances over a sample of queries. The LSH radius schedule uses it to pick
// the smallest search radius.
func NNDistanceQuantile(d *Dataset, q float64, sampleQ int, seed int64) float64 {
	if d.NQ() == 0 || d.N() == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	if sampleQ > d.NQ() {
		sampleQ = d.NQ()
	}
	dists := make([]float64, 0, sampleQ)
	for i := 0; i < sampleQ; i++ {
		qv := d.Queries[rng.Intn(d.NQ())]
		res := ann.BruteForce(d.Vectors, qv, 1)
		if len(res.Neighbors) > 0 {
			dists = append(dists, res.Neighbors[0].Dist)
		}
	}
	if len(dists) == 0 {
		return 0
	}
	sort.Float64s(dists)
	idx := int(q * float64(len(dists)-1))
	return dists[idx]
}

// Subset returns a view of the first n database objects with the same query
// set. It shares backing storage with the parent; it is the tool behind the
// paper's BIGANN-subset sweeps (Fig 14).
func (d *Dataset) Subset(n int) *Dataset {
	if n > d.N() {
		n = d.N()
	}
	return &Dataset{
		Name:    fmt.Sprintf("%s(%d)", d.Name, n),
		Dim:     d.Dim,
		Values:  d.Values,
		Vectors: d.Vectors[:n],
		Queries: d.Queries,
	}
}
