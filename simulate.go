package e2lshos

import (
	"fmt"

	"e2lshos/internal/costmodel"
	"e2lshos/internal/diskindex"
	"e2lshos/internal/iosim"
	"e2lshos/internal/sched"
	"e2lshos/internal/simclock"
)

// DeviceModel names a simulated storage device (Table 2).
type DeviceModel int

// The paper's device models.
const (
	ConsumerSSD DeviceModel = iota // 7.2 kIOPS QD1 / 273 kIOPS QD128
	EnterpriseSSD
	XLFlashDrive
	HardDisk
)

func (d DeviceModel) spec() (iosim.DeviceSpec, error) {
	switch d {
	case ConsumerSSD:
		return iosim.CSSD, nil
	case EnterpriseSSD:
		return iosim.ESSD, nil
	case XLFlashDrive:
		return iosim.XLFDD, nil
	case HardDisk:
		return iosim.HDD, nil
	}
	return iosim.DeviceSpec{}, fmt.Errorf("e2lshos: unknown device model %d", d)
}

// Interface names a simulated host I/O interface (Table 3).
type Interface int

// The paper's host interfaces.
const (
	IOUring        Interface = iota // 1 µs CPU per request
	SPDK                            // 350 ns
	XLFDDInterface                  // 50 ns
)

func (i Interface) spec() (iosim.InterfaceSpec, error) {
	switch i {
	case IOUring:
		return iosim.IOUring, nil
	case SPDK:
		return iosim.SPDK, nil
	case XLFDDInterface:
		return iosim.XLFDDLink, nil
	}
	return iosim.InterfaceSpec{}, fmt.Errorf("e2lshos: unknown interface %d", i)
}

// SimulationConfig describes a virtual-time batch run (§4.1's model made
// executable).
type SimulationConfig struct {
	Device  DeviceModel
	Devices int // number of drives (Table 5); default 1
	Iface   Interface
	Threads int // virtual CPU cores; default 1
	K       int // top-k; default 1
	// QueueDepth is the per-core query interleaving depth — how many query
	// contexts keep requests in the device queue. Zero follows the index's
	// WithIOEngine depth when one is attached (so capacity planning sweeps
	// the same knob the wall-clock engine uses), else 32.
	QueueDepth int
}

// SimulationReport summarizes a virtual-time batch.
type SimulationReport struct {
	// QueryTimeMS is the average per-query time in virtual milliseconds.
	QueryTimeMS float64
	// QueriesPerSecond is the virtual throughput.
	QueriesPerSecond float64
	// ObservedKIOPS is the device-side random read rate.
	ObservedKIOPS float64
	// IOCostMS and ComputeMS decompose the per-query CPU time (Fig 12).
	IOCostMS, ComputeMS float64
	// MeanIOsPerQuery is the paper's N_IO.
	MeanIOsPerQuery float64
	// FaultedReads is how many block reads failed at the store during the
	// simulation; the simulator serves such a read as a zero block, which
	// ends its chain. Nonzero only over a faulty backend.
	FaultedReads int64
	// Results are the per-query answers.
	Results []Result
}

// Simulate runs the batch of queries against the simulated storage stack and
// reports virtual-time performance: the tool behind the paper's §4 analysis
// and §6 evaluation, usable for capacity planning before buying hardware.
func (s *StorageIndex) Simulate(queries [][]float32, cfg SimulationConfig) (*SimulationReport, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("e2lshos: no queries")
	}
	devSpec, err := cfg.Device.spec()
	if err != nil {
		return nil, err
	}
	ifSpec, err := cfg.Iface.spec()
	if err != nil {
		return nil, err
	}
	devices := cfg.Devices
	if devices == 0 {
		devices = 1
	}
	threads := cfg.Threads
	if threads == 0 {
		threads = 1
	}
	k := cfg.K
	if k == 0 {
		k = 1
	}
	pool, err := iosim.NewPool(devSpec, devices)
	if err != nil {
		return nil, err
	}
	eng, err := sched.New(sched.Config{CPUs: threads, Iface: ifSpec, Pool: pool, Store: s.ix.Store()})
	if err != nil {
		return nil, err
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 32
		if ioeng := s.ix.IOEngine(); ioeng != nil {
			depth = ioeng.Depth()
		}
	}
	results := make([]diskindex.AsyncResult, len(queries))
	rep, err := eng.RunBatch(len(queries), depth, s.ix.AsyncQueryFunc(costmodel.Default(), queries, k, 0, results))
	if err != nil {
		return nil, err
	}
	out := &SimulationReport{
		QueryTimeMS:      rep.TimePerQuery().Millis(),
		QueriesPerSecond: rep.QueriesPerSecond(),
		ObservedKIOPS:    rep.ObservedIOPS() / 1000,
		IOCostMS:         simclock.Time(int64(rep.IOOverhead) / int64(rep.Queries)).Millis(),
		ComputeMS:        simclock.Time(int64(rep.Compute) / int64(rep.Queries)).Millis(),
		MeanIOsPerQuery:  float64(rep.IOs) / float64(rep.Queries),
		FaultedReads:     rep.FaultedReads,
	}
	for _, r := range results {
		out.Results = append(out.Results, r.Result)
	}
	return out, nil
}
