// Package iosim models the storage devices and host I/O interfaces of the
// paper's testbed (Tables 2, 3 and 5).
//
// A device is a set of parallel flash dies, each serving one 512-byte random
// read in a fixed service time. This two-parameter model reproduces the only
// device property the paper's analysis depends on: the saturating curve of
// random-read IOPS versus queue depth. At queue depth 1 a request occupies
// one die for the full service time (IOPS = 1/t); at high queue depth all
// dies work concurrently (IOPS = dies/t). Specs below are calibrated from
// Table 2's measured QD1/QD128 numbers; see DESIGN.md for the substitution
// rationale.
//
// A host interface is modeled as the CPU time one core spends issuing a
// single request (the paper's T_request, Table 3).
package iosim

import (
	"fmt"

	"e2lshos/internal/simclock"
)

// DeviceSpec describes one storage device model.
type DeviceSpec struct {
	// Name identifies the device in reports ("cSSD", "eSSD", ...).
	Name string
	// Dies is the number of independent flash units serving reads in
	// parallel.
	Dies int
	// ServiceTime is the time one die is occupied by one 512-byte random
	// read; it is also the queue-depth-1 latency.
	ServiceTime simclock.Time
	// CapacityBytes is the usable capacity, for Table 5/6 style reporting.
	CapacityBytes int64
}

// Device models of the paper (Table 2), calibrated so that QD1 IOPS =
// 1/ServiceTime and saturated IOPS = Dies/ServiceTime match the measured
// values.
var (
	// CSSD: consumer NVMe SSD, 7.2 kIOPS at QD1 and 273 kIOPS at QD128.
	CSSD = DeviceSpec{Name: "cSSD", Dies: 38, ServiceTime: 138889, CapacityBytes: 2 << 40}
	// ESSD: enterprise low-latency NVMe SSD, 27.6 kIOPS / 1.4 MIOPS.
	ESSD = DeviceSpec{Name: "eSSD", Dies: 51, ServiceTime: 36232, CapacityBytes: 800 << 30}
	// XLFDD: prototype low-latency flash demo drive, 132.3 kIOPS / 3.86 MIOPS.
	XLFDD = DeviceSpec{Name: "XLFDD", Dies: 29, ServiceTime: 7559, CapacityBytes: 520 << 30}
	// HDD: 7200 rpm hard drive, 0.21 kIOPS / 0.54 kIOPS (reference only).
	HDD = DeviceSpec{Name: "HDD", Dies: 3, ServiceTime: 4761905, CapacityBytes: 10 << 40}
)

// MaxIOPS returns the saturated random-read performance, Dies/ServiceTime.
func (s DeviceSpec) MaxIOPS() float64 {
	return float64(s.Dies) / s.ServiceTime.Seconds()
}

// Validate reports whether the spec is usable.
func (s DeviceSpec) Validate() error {
	if s.Dies <= 0 {
		return fmt.Errorf("iosim: device %q needs positive die count, got %d", s.Name, s.Dies)
	}
	if s.ServiceTime <= 0 {
		return fmt.Errorf("iosim: device %q needs positive service time, got %d", s.Name, s.ServiceTime)
	}
	return nil
}

// DeviceStats aggregates what a device observed during a run.
type DeviceStats struct {
	// IOs is the number of completed reads.
	IOs int64
	// SumLatency totals submit-to-completion times (queueing included).
	SumLatency simclock.Time
	// Busy totals die occupancy time.
	Busy simclock.Time
}

// MeanLatency returns the average request latency.
func (st DeviceStats) MeanLatency() simclock.Time {
	if st.IOs == 0 {
		return 0
	}
	return simclock.Time(int64(st.SumLatency) / st.IOs)
}

// Device is a stateful device instance inside one simulation run.
type Device struct {
	spec    DeviceSpec
	dieFree []simclock.Time
	stats   DeviceStats
}

// NewDevice instantiates a device from its spec.
func NewDevice(spec DeviceSpec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Device{spec: spec, dieFree: make([]simclock.Time, spec.Dies)}, nil
}

// Spec returns the device's spec.
func (d *Device) Spec() DeviceSpec { return d.spec }

// Stats returns the statistics accumulated so far.
func (d *Device) Stats() DeviceStats { return d.stats }

// Reset clears statistics and die occupancy (for back-to-back runs).
func (d *Device) Reset() {
	d.stats = DeviceStats{}
	clear(d.dieFree)
}

// Submit enqueues one 512-byte random read at virtual time now and returns
// its completion time. The request is served by the die that frees up
// earliest; submissions must be made in non-decreasing time order, which the
// scheduler guarantees.
func (d *Device) Submit(now simclock.Time) simclock.Time {
	best := 0
	for i := 1; i < len(d.dieFree); i++ {
		if d.dieFree[i] < d.dieFree[best] {
			best = i
		}
	}
	start := now
	if d.dieFree[best] > start {
		start = d.dieFree[best]
	}
	done := start + d.spec.ServiceTime
	d.dieFree[best] = done
	d.stats.IOs++
	d.stats.SumLatency += done - now
	d.stats.Busy += d.spec.ServiceTime
	return done
}

// MeasureIOPS drives a fresh device instance at a fixed queue depth for a
// virtual window and returns the observed random-read IOPS, the closed-loop
// measurement behind Table 2: each of queueDepth workers resubmits as soon
// as its previous request completes.
func MeasureIOPS(spec DeviceSpec, queueDepth int, window simclock.Time) (float64, error) {
	if queueDepth <= 0 {
		return 0, fmt.Errorf("iosim: queue depth must be positive, got %d", queueDepth)
	}
	if window <= 0 {
		return 0, fmt.Errorf("iosim: window must be positive, got %d", window)
	}
	d, err := NewDevice(spec)
	if err != nil {
		return 0, err
	}
	completions := make([]simclock.Time, queueDepth)
	var done int64
	for {
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
	return float64(done) / window.Seconds(), nil
}

// InterfaceSpec models a host storage interface as CPU time per request
// (Table 3).
type InterfaceSpec struct {
	Name            string
	RequestOverhead simclock.Time
}

// Host interface models of the paper (Table 3).
var (
	IOUring   = InterfaceSpec{Name: "io_uring", RequestOverhead: 1000}
	SPDK      = InterfaceSpec{Name: "SPDK", RequestOverhead: 350}
	XLFDDLink = InterfaceSpec{Name: "XLFDD", RequestOverhead: 50}
)

// MaxIOPSPerCore returns the reciprocal of the request overhead, the paper's
// "Max IOPS/core" column.
func (s InterfaceSpec) MaxIOPSPerCore() float64 {
	if s.RequestOverhead <= 0 {
		return 0
	}
	return 1 / s.RequestOverhead.Seconds()
}

// Pool is a striped set of identical devices: block addresses are spread
// round-robin, the multi-device configurations of Table 5.
type Pool struct {
	devices []*Device
}

// NewPool creates count devices of the given spec.
func NewPool(spec DeviceSpec, count int) (*Pool, error) {
	if count <= 0 {
		return nil, fmt.Errorf("iosim: pool needs at least one device, got %d", count)
	}
	p := &Pool{}
	for i := 0; i < count; i++ {
		d, err := NewDevice(spec)
		if err != nil {
			return nil, err
		}
		p.devices = append(p.devices, d)
	}
	return p, nil
}

// Devices returns the underlying devices.
func (p *Pool) Devices() []*Device { return p.devices }

// DeviceFor maps a block address to its device (round-robin striping).
func (p *Pool) DeviceFor(block uint64) *Device {
	return p.devices[block%uint64(len(p.devices))]
}

// Submit routes one read for the given block address.
func (p *Pool) Submit(now simclock.Time, block uint64) simclock.Time {
	return p.DeviceFor(block).Submit(now)
}

// MaxIOPS sums the saturated random-read performance of all devices.
func (p *Pool) MaxIOPS() float64 {
	var r float64
	for _, d := range p.devices {
		r += d.spec.MaxIOPS()
	}
	return r
}

// Stats aggregates statistics across devices.
func (p *Pool) Stats() DeviceStats {
	var st DeviceStats
	for _, d := range p.devices {
		ds := d.Stats()
		st.IOs += ds.IOs
		st.SumLatency += ds.SumLatency
		st.Busy += ds.Busy
	}
	return st
}

// Reset clears all device state.
func (p *Pool) Reset() {
	for _, d := range p.devices {
		d.Reset()
	}
}

// Usage returns the mean die utilization over an elapsed window: busy time
// divided by total die-time, the "device usage" series of Fig 15.
func (p *Pool) Usage(elapsed simclock.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	var dies int
	for _, d := range p.devices {
		dies += d.spec.Dies
	}
	return p.Stats().Busy.Seconds() / (elapsed.Seconds() * float64(dies))
}
