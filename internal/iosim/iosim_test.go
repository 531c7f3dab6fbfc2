package iosim

import (
	"math"
	"testing"

	"e2lshos/internal/simclock"
)

// measureIOPS drives a device at a fixed queue depth for a virtual second
// and returns the observed IOPS: the closed-loop pattern of an fio-style
// benchmark (Table 2's measurement).
func measureIOPS(spec DeviceSpec, queueDepth int) float64 {
	d, err := NewDevice(spec)
	if err != nil {
		panic(err)
	}
	const window = simclock.Second
	// Closed loop: each of queueDepth workers resubmits on completion.
	completions := make([]simclock.Time, queueDepth)
	var done int64
	for {
		// Find the worker whose request completes first.
		best := 0
		for i := 1; i < queueDepth; i++ {
			if completions[i] < completions[best] {
				best = i
			}
		}
		now := completions[best]
		if now >= window {
			break
		}
		completions[best] = d.Submit(now)
		done++
	}
	return float64(done) / window.Seconds()
}

func TestDeviceCalibrationQD1(t *testing.T) {
	// Table 2: QD1 kIOPS are 7.2 / 27.6 / 132.3 / 0.21.
	cases := []struct {
		spec DeviceSpec
		want float64
	}{
		{CSSD, 7200},
		{ESSD, 27600},
		{XLFDD, 132300},
		{HDD, 210},
	}
	for _, c := range cases {
		got := measureIOPS(c.spec, 1)
		if math.Abs(got-c.want)/c.want > 0.05 {
			t.Errorf("%s QD1: %.0f IOPS, want ~%.0f", c.spec.Name, got, c.want)
		}
	}
}

func TestDeviceCalibrationQD128(t *testing.T) {
	// Table 2: QD128 kIOPS are 273 / 1400 / 3860 / 0.54.
	cases := []struct {
		spec DeviceSpec
		want float64
	}{
		{CSSD, 273000},
		{ESSD, 1400000},
		{XLFDD, 3860000},
	}
	for _, c := range cases {
		got := measureIOPS(c.spec, 128)
		if math.Abs(got-c.want)/c.want > 0.05 {
			t.Errorf("%s QD128: %.0f IOPS, want ~%.0f", c.spec.Name, got, c.want)
		}
	}
}

func TestIOPSSaturatesWithQueueDepth(t *testing.T) {
	prev := 0.0
	for _, qd := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		got := measureIOPS(CSSD, qd)
		if got+1 < prev {
			t.Fatalf("IOPS decreased at QD %d: %v -> %v", qd, prev, got)
		}
		prev = got
	}
	// Saturation: doubling beyond 128 gains little.
	if more := measureIOPS(CSSD, 256); more > prev*1.05 {
		t.Errorf("IOPS did not saturate: QD128=%v QD256=%v", prev, more)
	}
}

func TestSubmitLatencyGrowsUnderLoad(t *testing.T) {
	d, _ := NewDevice(CSSD)
	// Flood at time zero: each request's latency grows as dies queue up.
	var last simclock.Time
	for i := 0; i < 200; i++ {
		done := d.Submit(0)
		if done < last {
			// Completion times are not required to be monotone across dies,
			// but the mean must grow; just track stats here.
			_ = done
		}
		last = done
	}
	st := d.Stats()
	if st.IOs != 200 {
		t.Fatalf("IOs = %d, want 200", st.IOs)
	}
	if st.MeanLatency() <= CSSD.ServiceTime {
		t.Errorf("mean latency %v under flood should exceed service time %v",
			st.MeanLatency(), CSSD.ServiceTime)
	}
}

func TestDeviceReset(t *testing.T) {
	d, _ := NewDevice(XLFDD)
	d.Submit(0)
	d.Reset()
	if d.Stats().IOs != 0 {
		t.Error("Reset did not clear stats")
	}
	if done := d.Submit(0); done != XLFDD.ServiceTime {
		t.Errorf("after reset first submit completes at %v, want %v", done, XLFDD.ServiceTime)
	}
}

func TestSpecValidation(t *testing.T) {
	if err := (DeviceSpec{Name: "x", Dies: 0, ServiceTime: 1}).Validate(); err == nil {
		t.Error("zero dies accepted")
	}
	if err := (DeviceSpec{Name: "x", Dies: 1, ServiceTime: 0}).Validate(); err == nil {
		t.Error("zero service time accepted")
	}
	if _, err := NewDevice(DeviceSpec{Name: "bad"}); err == nil {
		t.Error("NewDevice accepted invalid spec")
	}
}

func TestSpecDerivedRates(t *testing.T) {
	if got := CSSD.MaxIOPS(); math.Abs(got-273600) > 1000 {
		t.Errorf("CSSD MaxIOPS = %v", got)
	}
	if got := 1 / CSSD.ServiceTime.Seconds(); math.Abs(got-7200) > 50 {
		t.Errorf("CSSD QD1 IOPS = %v", got)
	}
}

func TestInterfaceSpecs(t *testing.T) {
	// Table 3: 1.0 MIOPS, 2.9 MIOPS, 20 MIOPS per core.
	if got := IOUring.MaxIOPSPerCore(); math.Abs(got-1e6) > 1 {
		t.Errorf("io_uring max IOPS/core = %v", got)
	}
	if got := SPDK.MaxIOPSPerCore(); math.Abs(got-2.857e6) > 1e4 {
		t.Errorf("SPDK max IOPS/core = %v", got)
	}
	if got := XLFDDLink.MaxIOPSPerCore(); math.Abs(got-2e7) > 1 {
		t.Errorf("XLFDD max IOPS/core = %v", got)
	}
}

func TestPoolStriping(t *testing.T) {
	p, err := NewPool(CSSD, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Devices()) != 4 {
		t.Fatalf("pool has %d devices", len(p.Devices()))
	}
	// Blocks spread round-robin.
	counts := map[*Device]int{}
	for b := uint64(0); b < 100; b++ {
		counts[p.DeviceFor(b)]++
	}
	for _, d := range p.Devices() {
		if counts[d] != 25 {
			t.Errorf("device got %d blocks, want 25", counts[d])
		}
	}
}

func TestPoolAggregation(t *testing.T) {
	p, _ := NewPool(ESSD, 8)
	if got := p.MaxIOPS(); math.Abs(got-8*ESSD.MaxIOPS()) > 1 {
		t.Errorf("pool MaxIOPS = %v", got)
	}
	for b := uint64(0); b < 32; b++ {
		p.Submit(0, b)
	}
	if st := p.Stats(); st.IOs != 32 {
		t.Errorf("pool stats IOs = %d, want 32", st.IOs)
	}
	p.Reset()
	if st := p.Stats(); st.IOs != 0 {
		t.Error("pool Reset did not clear stats")
	}
}

func TestPoolUsage(t *testing.T) {
	p, _ := NewPool(CSSD, 1)
	if u := p.Usage(simclock.Second); u != 0 {
		t.Errorf("idle usage = %v", u)
	}
	// Saturate for one virtual second: usage should approach 1.
	completions := make([]simclock.Time, 128)
	for {
		best := 0
		for i := range completions {
			if completions[i] < completions[best] {
				best = i
			}
		}
		if completions[best] >= simclock.Second {
			break
		}
		completions[best] = p.Submit(completions[best], uint64(best))
	}
	if u := p.Usage(simclock.Second); u < 0.9 {
		t.Errorf("saturated usage = %v, want > 0.9", u)
	}
	if u := p.Usage(0); u != 0 {
		t.Errorf("zero-window usage = %v", u)
	}
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(CSSD, 0); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := NewPool(DeviceSpec{Name: "bad"}, 2); err == nil {
		t.Error("invalid spec accepted")
	}
}
