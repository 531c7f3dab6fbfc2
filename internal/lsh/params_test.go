package lsh

import (
	"math"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.C = 1 },
		func(c *Config) { c.C = 0.5 },
		func(c *Config) { c.W = 0 },
		func(c *Config) { c.Rho = 0 },
		func(c *Config) { c.Rho = 1 },
		func(c *Config) { c.Gamma = 0 },
		func(c *Config) { c.Sigma = -1 },
		func(c *Config) { c.MaxRadii = 0 },
	}
	for i, mutate := range mutations {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

func TestDeriveBasics(t *testing.T) {
	p, err := Derive(DefaultConfig(), 100000, 64, 0.5, 100)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if p.M < 1 || p.L < 1 || p.S < p.L {
		t.Fatalf("degenerate params: m=%d l=%d s=%d", p.M, p.L, p.S)
	}
	if !(p.P1 > p.P2) {
		t.Fatalf("p1=%v must exceed p2=%v", p.P1, p.P2)
	}
	if p.R() == 0 {
		t.Fatal("empty radius schedule")
	}
	// L = n^rho.
	wantL := int(math.Ceil(math.Pow(100000, p.Rho)))
	if p.L != wantL {
		t.Errorf("L = %d, want %d", p.L, wantL)
	}
	// S = sigma*L.
	if p.S != int(math.Ceil(p.Sigma*float64(p.L))) {
		t.Errorf("S = %d, want sigma*L", p.S)
	}
}

func TestDeriveMGrowsLogarithmically(t *testing.T) {
	cfg := DefaultConfig()
	p1, _ := Derive(cfg, 1000, 16, 1, 10)
	p2, _ := Derive(cfg, 1000000, 16, 1, 10)
	if p2.M <= p1.M {
		t.Errorf("m should grow with n: %d vs %d", p1.M, p2.M)
	}
	if p2.M > 3*p1.M {
		t.Errorf("m growth should be logarithmic: %d vs %d", p1.M, p2.M)
	}
}

func TestDeriveGammaScalesM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Gamma = 1
	pa, _ := Derive(cfg, 100000, 16, 1, 10)
	cfg.Gamma = 2
	pb, _ := Derive(cfg, 100000, 16, 1, 10)
	if pb.M < 2*pa.M-1 || pb.M > 2*pa.M+1 {
		t.Errorf("gamma=2 should double m: %d vs %d", pa.M, pb.M)
	}
	if pb.L != pa.L {
		t.Errorf("gamma must not change L: %d vs %d", pa.L, pb.L)
	}
}

func TestDeriveErrors(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Derive(cfg, 0, 16, 1, 10); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Derive(cfg, 10, 0, 1, 10); err == nil {
		t.Error("dim=0 accepted")
	}
	if _, err := Derive(cfg, 10, 16, 0, 10); err == nil {
		t.Error("rmin=0 accepted")
	}
	if _, err := Derive(cfg, 10, 16, 5, 1); err == nil {
		t.Error("rmax < rmin accepted")
	}
	bad := cfg
	bad.C = 0.5
	if _, err := Derive(bad, 10, 16, 1, 10); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRadiusSchedule(t *testing.T) {
	radii := RadiusSchedule(2, 1, 16, 20)
	want := []float64{1, 2, 4, 8, 16}
	if len(radii) != len(want) {
		t.Fatalf("schedule %v, want %v", radii, want)
	}
	for i := range want {
		if math.Abs(radii[i]-want[i]) > 1e-9 {
			t.Fatalf("schedule %v, want %v", radii, want)
		}
	}
}

func TestRadiusScheduleSnapsToPowerOfC(t *testing.T) {
	radii := RadiusSchedule(2, 3, 20, 20)
	if radii[0] != 2 {
		t.Errorf("rmin=3 should snap down to 2, got %v", radii[0])
	}
	last := radii[len(radii)-1]
	if last < 20 {
		t.Errorf("schedule must cover rmax: last=%v", last)
	}
}

func TestRadiusScheduleCap(t *testing.T) {
	radii := RadiusSchedule(2, 1, 1e12, 5)
	if len(radii) != 5 {
		t.Errorf("cap ignored: len=%d", len(radii))
	}
}

func TestRadiusScheduleGeometric(t *testing.T) {
	radii := RadiusSchedule(3, 0.7, 500, 30)
	for i := 1; i < len(radii); i++ {
		if math.Abs(radii[i]/radii[i-1]-3) > 1e-9 {
			t.Fatalf("not geometric with ratio 3: %v", radii)
		}
	}
}

func TestMaxRadius(t *testing.T) {
	if got := MaxRadius(255, 128); math.Abs(got-2*255*math.Sqrt(128)) > 1e-9 {
		t.Errorf("MaxRadius = %v", got)
	}
	if got := MaxRadius(0, 128); got != 1 {
		t.Errorf("MaxRadius degenerate = %v, want 1", got)
	}
}
