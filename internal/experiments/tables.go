package experiments

import (
	"fmt"

	"e2lshos/internal/dataset"
	"e2lshos/internal/iosim"
	"e2lshos/internal/ladder"
	"e2lshos/internal/report"
	"e2lshos/internal/simclock"
)

// Table1Result reproduces Table 1: the dataset roster with hardness proxies.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one dataset's statistics.
type Table1Row struct {
	Name   string
	N      int
	Dim    int
	Values string
	RC     float64
	LID    float64
}

// Table1 generates every clone and measures its RC and LID.
func Table1(env *Env) (*Table1Result, error) {
	res := &Table1Result{}
	for _, name := range dataset.PaperNames {
		ws, err := env.Workload(name)
		if err != nil {
			return nil, err
		}
		ds := ws.DS
		sampleQ := min(ds.NQ(), 20)
		res.Rows = append(res.Rows, Table1Row{
			Name:   ds.Name,
			N:      ds.N(),
			Dim:    ds.Dim,
			Values: ds.Values.String(),
			RC:     dataset.RelativeContrast(ds, sampleQ, 2000, env.Seed),
			LID:    dataset.LocalIntrinsicDimensionality(ds, 20, min(sampleQ, 10), env.Seed),
		})
	}
	return res, nil
}

// Render implements Renderable.
func (r *Table1Result) Render() []*report.Table {
	t := report.New("Table 1: datasets (scaled clones)", "Name", "n", "d", "Data", "RC", "LID")
	for _, row := range r.Rows {
		t.AddRow(row.Name, report.Int(row.N), report.Int(row.Dim), row.Values,
			report.Num(row.RC), report.Num(row.LID))
	}
	return []*report.Table{t}
}

// Table2Result reproduces Table 2: device random-read performance at queue
// depths 1 and 128.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one device's measured performance.
type Table2Row struct {
	Device        string
	KIOPSQD1      float64
	KIOPSQD128    float64
	CapacityBytes int64
}

// Table2 measures every device model with the closed-loop benchmark.
func Table2(env *Env) (*Table2Result, error) {
	res := &Table2Result{}
	for _, spec := range []iosim.DeviceSpec{iosim.CSSD, iosim.ESSD, iosim.XLFDD, iosim.HDD} {
		qd1, err := iosim.MeasureIOPS(spec, 1, simclock.Second)
		if err != nil {
			return nil, err
		}
		qd128, err := iosim.MeasureIOPS(spec, 128, simclock.Second)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table2Row{
			Device:        spec.Name,
			KIOPSQD1:      qd1 / 1000,
			KIOPSQD128:    qd128 / 1000,
			CapacityBytes: spec.CapacityBytes,
		})
	}
	return res, nil
}

// Render implements Renderable.
func (r *Table2Result) Render() []*report.Table {
	t := report.New("Table 2: storage devices, random read kIOPS",
		"Device", "QD1 kIOPS", "QD128 kIOPS", "Capacity")
	for _, row := range r.Rows {
		t.AddRow(row.Device, report.Num(row.KIOPSQD1), report.Num(row.KIOPSQD128),
			report.Bytes(row.CapacityBytes))
	}
	return []*report.Table{t}
}

// Table3Result reproduces Table 3: interface CPU overheads.
type Table3Result struct {
	Rows []Table3Row
}

// Table3Row is one interface's overhead.
type Table3Row struct {
	Interface      string
	OverheadNS     int64
	MaxIOPSPerCore float64
}

// Table3 reports the interface models.
func Table3(env *Env) (*Table3Result, error) {
	res := &Table3Result{}
	for _, spec := range []iosim.InterfaceSpec{iosim.IOUring, iosim.SPDK, iosim.XLFDDLink} {
		res.Rows = append(res.Rows, Table3Row{
			Interface:      spec.Name,
			OverheadNS:     int64(spec.RequestOverhead),
			MaxIOPSPerCore: spec.MaxIOPSPerCore(),
		})
	}
	return res, nil
}

// Render implements Renderable.
func (r *Table3Result) Render() []*report.Table {
	t := report.New("Table 3: storage interfaces, CPU overhead per I/O",
		"Interface", "CPU time per I/O", "Max IOPS/core")
	for _, row := range r.Rows {
		t.AddRow(row.Interface, fmt.Sprintf("%d ns", row.OverheadNS),
			fmt.Sprintf("%.1f M", row.MaxIOPSPerCore/1e6))
	}
	return []*report.Table{t}
}

// Table4Result reproduces Table 4: average hash bucket reads per query.
type Table4Result struct {
	Rows []Table4Row
}

// Table4Row is one dataset's I/O profile.
type Table4Row struct {
	Dataset    string
	L          int
	TotalRadii int
	MeanRadii  float64
	IOsInf     float64
}

// Table4 runs in-memory E2LSH per dataset at the default budget and counts
// radii and N_IO,∞.
func Table4(env *Env) (*Table4Result, error) {
	res := &Table4Result{}
	for _, name := range dataset.PaperNames {
		ws, err := env.Workload(name)
		if err != nil {
			return nil, err
		}
		s := ws.Mem.NewSearcher()
		var acc ladder.Stats
		for _, q := range ws.DS.Queries {
			_, st := s.Search(q, 1)
			acc.Merge(st)
		}
		res.Rows = append(res.Rows, Table4Row{
			Dataset:    ws.DS.Name,
			L:          ws.Params.L,
			TotalRadii: ws.Params.R(),
			MeanRadii:  acc.MeanRadii(),
			IOsInf:     float64(acc.IOsAtInf) / float64(acc.Queries),
		})
	}
	return res, nil
}

// Render implements Renderable.
func (r *Table4Result) Render() []*report.Table {
	t := report.New("Table 4: average number of hash bucket reads per query",
		"Dataset", "# hashes L", "Total # radii r", "Avg # radii r̄", "Avg # I/Os N_IO,∞")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, report.Int(row.L), report.Int(row.TotalRadii),
			report.Num(row.MeanRadii), report.Num(row.IOsInf))
	}
	return []*report.Table{t}
}

// StorageConfig is one Table 5 device configuration.
type StorageConfig struct {
	Name   string
	Device iosim.DeviceSpec
	Count  int
	Iface  iosim.InterfaceSpec
}

// PaperConfigs returns the Table 5 device sets with their default interface.
func PaperConfigs() []StorageConfig {
	return []StorageConfig{
		{Name: "cSSD x1", Device: iosim.CSSD, Count: 1, Iface: iosim.IOUring},
		{Name: "cSSD x4", Device: iosim.CSSD, Count: 4, Iface: iosim.IOUring},
		{Name: "eSSD x1", Device: iosim.ESSD, Count: 1, Iface: iosim.SPDK},
		{Name: "eSSD x8", Device: iosim.ESSD, Count: 8, Iface: iosim.SPDK},
		{Name: "XLFDD x12", Device: iosim.XLFDD, Count: 12, Iface: iosim.XLFDDLink},
	}
}

// Table5Result reproduces Table 5: the storage device configurations.
type Table5Result struct {
	Rows []Table5Row
}

// Table5Row is one configuration.
type Table5Row struct {
	Name          string
	Count         int
	CapacityBytes int64
	TotalKIOPS    float64
}

// Table5 derives capacity and aggregate read performance per configuration.
func Table5(env *Env) (*Table5Result, error) {
	res := &Table5Result{}
	for _, cfg := range PaperConfigs() {
		res.Rows = append(res.Rows, Table5Row{
			Name:          cfg.Name,
			Count:         cfg.Count,
			CapacityBytes: int64(cfg.Count) * cfg.Device.CapacityBytes,
			TotalKIOPS:    float64(cfg.Count) * cfg.Device.MaxIOPS() / 1000,
		})
	}
	return res, nil
}

// Render implements Renderable.
func (r *Table5Result) Render() []*report.Table {
	t := report.New("Table 5: storage device configurations",
		"Device", "Number", "Total capacity", "Total random read")
	for _, row := range r.Rows {
		t.AddRow(row.Name, report.Int(row.Count), report.Bytes(row.CapacityBytes),
			fmt.Sprintf("%.0f kIOPS", row.TotalKIOPS))
	}
	return []*report.Table{t}
}

// Table6Result reproduces Table 6: index sizes and runtime memory usage.
type Table6Result struct {
	Rows []Table6Row
}

// Table6Row is one dataset's sizes.
type Table6Row struct {
	Dataset string
	// E2LSHoS: index bytes on storage (buckets packed into shared blocks),
	// the same index with one block per bucket as the paper lays it out
	// (computed from the bucket sizes, not built), total runtime DRAM
	// (database + index metadata), and the index-metadata share of that DRAM.
	DiskIndexStorage int64
	DiskIndexPaper   int64
	DiskMemUsage     int64
	DiskIndexMem     int64
	// SRS: total runtime DRAM and its index share.
	SRSMemUsage int64
	SRSIndexMem int64
}

// Table6 builds E2LSHoS and SRS per dataset and measures sizes.
func Table6(env *Env) (*Table6Result, error) {
	res := &Table6Result{}
	for _, name := range dataset.PaperNames {
		ws, err := env.Workload(name)
		if err != nil {
			return nil, err
		}
		disk, err := ws.Disk(env)
		if err != nil {
			return nil, err
		}
		paper, err := disk.UnpackedStorageBytes()
		if err != nil {
			return nil, err
		}
		db := ws.DS.Bytes()
		res.Rows = append(res.Rows, Table6Row{
			Dataset:          ws.DS.Name,
			DiskIndexStorage: disk.StorageBytes(),
			DiskIndexPaper:   paper,
			DiskMemUsage:     db + disk.MemBytes(),
			DiskIndexMem:     disk.MemBytes(),
			SRSMemUsage:      db + ws.SRS.IndexBytes(),
			SRSIndexMem:      ws.SRS.IndexBytes(),
		})
	}
	return res, nil
}

// Render implements Renderable.
func (r *Table6Result) Render() []*report.Table {
	t := report.New("Table 6: index size and runtime memory usage",
		"Dataset", "E2LSHoS index storage", "(block per bucket)", "E2LSHoS mem usage", "(index mem)",
		"SRS mem usage", "(index mem)")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset,
			report.Bytes(row.DiskIndexStorage), report.Bytes(row.DiskIndexPaper),
			report.Bytes(row.DiskMemUsage), report.Bytes(row.DiskIndexMem),
			report.Bytes(row.SRSMemUsage), report.Bytes(row.SRSIndexMem))
	}
	return []*report.Table{t}
}
