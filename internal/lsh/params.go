package lsh

import (
	"fmt"
	"math"
	"math/rand"

	"e2lshos/internal/vecmath"
)

// Config carries the tunable algorithm knobs of E2LSH as used by the paper
// (§3.3). The zero value is not useful; start from DefaultConfig.
type Config struct {
	// C is the approximation ratio of each (R,c)-NN subproblem. The paper
	// uses c = 2, solving c² = 4-ANNS overall.
	C float64
	// W is the bucket width at radius R = 1. Larger widths raise collision
	// probabilities (higher recall, more candidates).
	W float64
	// Rho sets the index growth exponent: L = n^Rho. The paper fixes Rho per
	// dataset "large enough to achieve the desired range of accuracy".
	Rho float64
	// Gamma scales the number of hash functions per compound hash:
	// m = Gamma · log_{1/p2} n. It is the fine accuracy knob that leaves the
	// index size (L) unchanged.
	Gamma float64
	// Sigma scales the per-radius candidate budget: S = Sigma · L. Eq. 5 uses
	// Sigma = 2; the paper raises it to compensate Gamma.
	Sigma float64
	// MaxRadii caps the radius schedule length r.
	MaxRadii int
}

// DefaultConfig returns the paper-aligned defaults.
func DefaultConfig() Config {
	return Config{C: 2, W: 4, Rho: 0.22, Gamma: 1.0, Sigma: 2.0, MaxRadii: 16}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	switch {
	case c.C <= 1:
		return fmt.Errorf("lsh: approximation ratio must exceed 1, got %v", c.C)
	case c.W <= 0:
		return fmt.Errorf("lsh: bucket width must be positive, got %v", c.W)
	case c.Rho <= 0 || c.Rho >= 1:
		return fmt.Errorf("lsh: rho must be in (0,1), got %v", c.Rho)
	case c.Gamma <= 0:
		return fmt.Errorf("lsh: gamma must be positive, got %v", c.Gamma)
	case c.Sigma <= 0:
		return fmt.Errorf("lsh: sigma must be positive, got %v", c.Sigma)
	case c.MaxRadii <= 0:
		return fmt.Errorf("lsh: MaxRadii must be positive, got %d", c.MaxRadii)
	}
	return nil
}

// Params are the fully derived E2LSH parameters for one dataset: Eq. 5 of the
// paper with the Gamma/Sigma scaling of §3.3 plus the radius schedule of
// §2.3.
type Params struct {
	Config
	N, Dim int
	// M is the number of hash functions per compound hash.
	M int
	// L is the number of compound hashes (hash tables per radius).
	L int
	// S is the candidate budget per radius.
	S int
	// P1 and P2 are the collision probabilities at distance R and cR.
	P1, P2 float64
	// Radii is the increasing (R, c)-NN radius schedule.
	Radii []float64
}

// R returns the number of radii (the paper's r).
func (p Params) R() int { return len(p.Radii) }

// Derive computes Params for a database of n points of dimension dim whose
// nearest-neighbor distances start around rmin and whose diameter is bounded
// by rmax (the paper's R_max = 2·x_max·√d).
func Derive(cfg Config, n, dim int, rmin, rmax float64) (Params, error) {
	if err := cfg.Validate(); err != nil {
		return Params{}, err
	}
	if n <= 0 || dim <= 0 {
		return Params{}, fmt.Errorf("lsh: Derive requires positive n and dim, got %d, %d", n, dim)
	}
	if rmin <= 0 || rmax < rmin {
		return Params{}, fmt.Errorf("lsh: Derive requires 0 < rmin <= rmax, got %v, %v", rmin, rmax)
	}
	p1 := vecmath.CollisionProb(cfg.W, 1)
	p2 := vecmath.CollisionProb(cfg.W, cfg.C)
	if p2 <= 0 || p2 >= 1 {
		return Params{}, fmt.Errorf("lsh: degenerate p2 = %v for w = %v, c = %v", p2, cfg.W, cfg.C)
	}
	logN := math.Log(float64(n))
	m := int(math.Ceil(cfg.Gamma * logN / math.Log(1/p2)))
	if m < 1 {
		m = 1
	}
	l := int(math.Ceil(math.Pow(float64(n), cfg.Rho)))
	if l < 1 {
		l = 1
	}
	s := int(math.Ceil(cfg.Sigma * float64(l)))
	if s < 1 {
		s = 1
	}
	return Params{
		Config: cfg,
		N:      n,
		Dim:    dim,
		M:      m,
		L:      l,
		S:      s,
		P1:     p1,
		P2:     p2,
		Radii:  RadiusSchedule(cfg.C, rmin, rmax, cfg.MaxRadii),
	}, nil
}

// RadiusSchedule builds the geometric radius ladder R = rstart, rstart·c,
// rstart·c², …, covering rmax, capped at maxRadii entries. rstart is rmin
// snapped down to the previous power of c so that schedules for related
// datasets align.
func RadiusSchedule(c, rmin, rmax float64, maxRadii int) []float64 {
	if rmin <= 0 {
		rmin = 1
	}
	if rmax < rmin {
		rmax = rmin
	}
	// Snap the start down to a power of c (relative to 1).
	start := math.Pow(c, math.Floor(math.Log(rmin)/math.Log(c)))
	var radii []float64
	for r := start; len(radii) < maxRadii; r *= c {
		radii = append(radii, r)
		if r >= rmax {
			break
		}
	}
	return radii
}

// MaxRadius returns the paper's R_max = 2·x_max·√d diameter bound.
func MaxRadius(xmax float64, dim int) float64 {
	if xmax <= 0 || dim <= 0 {
		return 1
	}
	return 2 * xmax * math.Sqrt(float64(dim))
}

// NewFamilies draws the hash families an index needs: one family when
// projections are shared across radii, otherwise one per radius. Both the
// in-memory and the on-storage index construct families through this helper
// so that equal (params, share, seed) yield identical hash functions.
func NewFamilies(p Params, share bool, seed int64) ([]*Family, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 1
	if !share {
		n = p.R()
	}
	fams := make([]*Family, 0, n)
	for i := 0; i < n; i++ {
		f, err := NewFamily(p.Dim, p.M, p.L, p.W, rng)
		if err != nil {
			return nil, err
		}
		fams = append(fams, f)
	}
	return fams, nil
}
