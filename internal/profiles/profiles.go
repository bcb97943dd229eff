// Package profiles holds the calibrated device configurations for the
// paper's Table I hardware: ESSD-1 (Amazon AWS io2), ESSD-2 (Alibaba Cloud
// PL3) and the local Samsung 970 Pro class SSD, plus extra tiers used by
// ablation benchmarks.
//
// Simulated capacities are scaled down 64× so page-level FTL state fits in
// memory and the write-3×-capacity experiment completes quickly; every
// knee the paper reports is capacity-relative, so the scaling preserves
// it. Latency constants are calibrated so the simulated devices land near
// the paper's Figure 2 annotations; the mechanisms producing the trends
// live in the essd/ssd/cluster/ftl packages, not here.
package profiles

import (
	"fmt"

	"essdsim/internal/blockdev"
	"essdsim/internal/cluster"
	"essdsim/internal/essd"
	"essdsim/internal/netsim"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
	"essdsim/internal/ssd"
)

// CapacityScale is the divisor applied to the paper's device capacities.
const CapacityScale = 64

// Paper capacities (Table I).
const (
	paperESSDCapacity = 2 << 40 // 2 TB volumes
	paperSSDCapacity  = 1 << 40 // 1 TB local SSD
)

// Scaled simulated capacities.
const (
	ESSDCapacity = paperESSDCapacity / CapacityScale // 32 GiB
	SSDCapacity  = paperSSDCapacity / CapacityScale  // 16 GiB
)

// ESSD1Config returns the calibrated Amazon AWS io2 class volume
// (Table I row 1: ~3.0 GB/s, 2 TB, m6in.xlarge, Tokyo).
func ESSD1Config() essd.Config {
	return essd.Config{
		Name:             "ESSD-1 (AWS io2)",
		Provider:         "Amazon AWS",
		Model:            "io2",
		Capacity:         ESSDCapacity,
		BlockSize:        4096,
		ThroughputBudget: 3.0e9,
		BudgetBurst:      48 << 20,
		IOPSBudget:       64000, // volume ceiling; Table I lists the provisioned 25.6K
		IOPSBurst:        2000,
		IOPSChunkBytes:   256 << 10, // io2 merges up to 256 KiB per I/O credit
		FrontendSlots:    8,
		FrontendLatency:  sim.LogNormal{Median: 55 * sim.Microsecond, Sigma: 0.14},
		Net: netsim.Config{
			HopLatency: sim.Spiked{
				Base:  sim.LogNormal{Median: 40 * sim.Microsecond, Sigma: 0.12},
				P:     0.0002,
				Spike: sim.LogNormal{Median: 800 * sim.Microsecond, Sigma: 0.35},
			},
			UplinkBW:   3.3e9,
			DownlinkBW: 3.3e9,
		},
		Cluster: cluster.Config{
			Nodes:        16,
			ChunkBytes:   2 << 20,
			Replicas:     3,
			WriteSlots:   2,
			WriteService: sim.LogNormal{Median: 55 * sim.Microsecond, Sigma: 0.15},
			StreamBW:     2.0e9,
			ReplBW:       4.0e9, // 2 copies in flight; keeps the stream binding
			ReplHop: sim.Spiked{
				Base:  sim.LogNormal{Median: 40 * sim.Microsecond, Sigma: 0.12},
				P:     0.0002,
				Spike: sim.LogNormal{Median: 800 * sim.Microsecond, Sigma: 0.35},
			},
			ReadSlots:   8,
			ReadService: sim.LogNormal{Median: 330 * sim.Microsecond, Sigma: 0.16},
			ReadBW:      0.45e9,
			CleanerRate: 1.2e9,
		},
		SpareFrac:    0.66,
		ThrottleRate: 0.305e9,
	}
}

// ESSD2Config returns the calibrated Alibaba Cloud PL3 class volume
// (Table I row 2: ~1.1 GB/s, 100K IOPS, 2 TB, ecs.g5.4xlarge, Hangzhou).
// Its base latency is lower than ESSD-1's but its tail (P99.9) is heavier,
// matching Figure 2c/2d.
func ESSD2Config() essd.Config {
	tailHop := sim.Spiked{
		Base:  sim.LogNormal{Median: 12 * sim.Microsecond, Sigma: 0.20},
		P:     0.0011,
		Spike: sim.LogNormal{Median: 1100 * sim.Microsecond, Sigma: 0.45},
	}
	return essd.Config{
		Name:             "ESSD-2 (Alibaba PL3)",
		Provider:         "Alibaba Cloud",
		Model:            "PL3",
		Capacity:         ESSDCapacity,
		BlockSize:        4096,
		ThroughputBudget: 1.1e9,
		BudgetBurst:      16 << 20,
		IOPSBudget:       100000,
		IOPSBurst:        3000,
		IOPSChunkBytes:   16 << 10,
		FrontendSlots:    8,
		FrontendLatency:  sim.LogNormal{Median: 22 * sim.Microsecond, Sigma: 0.16},
		Net: netsim.Config{
			HopLatency: tailHop,
			UplinkBW:   1.6e9,
			DownlinkBW: 1.6e9,
		},
		Cluster: cluster.Config{
			Nodes:        16,
			ChunkBytes:   2 << 20,
			Replicas:     3,
			WriteSlots:   1,
			WriteService: sim.LogNormal{Median: 26 * sim.Microsecond, Sigma: 0.18},
			StreamBW:     0.4e9,
			ReplBW:       0.9e9, // 2 copies in flight; stream remains binding
			ReplHop:      tailHop,
			ReadSlots:    8,
			ReadService:  sim.LogNormal{Median: 184 * sim.Microsecond, Sigma: 0.18},
			ReadBW:       0.7e9,
			CleanerRate:  1.3e9,
		},
		SpareFrac:    0.61,
		ThrottleRate: 0.305e9, // unreached within the paper's 3× experiment
	}
}

// SSDConfig returns the scaled Samsung 970 Pro class local SSD
// (Table I row 3: 3.5/2.7 GB/s seq R/W, 500K/500K 4K QD32 IOPS, 1 TB).
func SSDConfig() ssd.Config {
	cfg := ssd.DefaultConfig(SSDCapacity)
	cfg.Name = "SSD (Samsung 970 Pro)"
	return cfg
}

// TableI returns the paper's Table I rows: the externally advertised
// envelope of each device (paper-scale capacities, not simulator-scale).
func TableI() []blockdev.Config {
	return []blockdev.Config{
		{
			Provider: "Amazon AWS", Model: "io2", Kind: "ESSD",
			MaxReadBW: 3.0e9, MaxWriteBW: 3.0e9,
			MaxIOPS: 25600, Capacity: paperESSDCapacity,
		},
		{
			Provider: "Alibaba Cloud", Model: "PL3", Kind: "ESSD",
			MaxReadBW: 1.1e9, MaxWriteBW: 1.1e9,
			MaxIOPS: 100000, Capacity: paperESSDCapacity,
		},
		{
			Provider: "Samsung", Model: "970 Pro", Kind: "SSD",
			MaxReadBW: 3.5e9, MaxWriteBW: 2.7e9,
			MaxIOPS: 500000, Capacity: paperSSDCapacity,
		},
	}
}

// GP3Config returns a general-purpose (gp3-like) ESSD tier used by ablation
// benchmarks: same architecture as io2, lower budgets.
func GP3Config() essd.Config {
	cfg := ESSD1Config()
	cfg.Name = "ESSD (AWS gp3 class)"
	cfg.Model = "gp3"
	cfg.ThroughputBudget = 1.0e9
	cfg.BudgetBurst = 16 << 20
	cfg.IOPSBudget = 16000
	cfg.SpareFrac = 0.40
	return cfg
}

// PL1Config returns a low-tier (PL1-like) ESSD used by ablation benchmarks.
func PL1Config() essd.Config {
	cfg := ESSD2Config()
	cfg.Name = "ESSD (Alibaba PL1 class)"
	cfg.Model = "PL1"
	cfg.ThroughputBudget = 0.35e9
	cfg.BudgetBurst = 8 << 20
	cfg.IOPSBudget = 50000
	cfg.Cluster.CleanerRate = 0.5e9
	return cfg
}

// GP2Config returns a burstable general-purpose (gp2-like) tier: a low
// baseline with a credit-backed burst ceiling. It exercises the
// qos.CreditBucket machinery behind the cheaper volume classes the paper's
// Table I contrasts with io2/PL3.
func GP2Config() essd.Config {
	cfg := ESSD1Config()
	cfg.Name = "ESSD (AWS gp2 class)"
	cfg.Model = "gp2"
	cfg.ThroughputBudget = 1.0e9 // burst ceiling
	cfg.BudgetBurst = 8 << 20
	cfg.IOPSBudget = 16000
	cfg.BurstBaseline = 0.25e9
	cfg.BurstCreditBytes = 4 << 30 / CapacityScale * 16 // scaled credit bank
	cfg.SpareFrac = 0.40
	return cfg
}

// GP2SmallConfig returns a small burstable (gp2-like) volume: as on real
// burstable tiers, a smaller volume earns credits more slowly and peaks
// lower, so its credits exhaust sooner under the same offered load. Paired
// with GP2Config it gives burst-credit scenario sweeps a second burstable
// device axis value.
func GP2SmallConfig() essd.Config {
	cfg := GP2Config()
	cfg.Name = "ESSD (AWS gp2 small)"
	cfg.ThroughputBudget = 0.5e9 // burst ceiling
	cfg.BudgetBurst = 4 << 20
	cfg.IOPSBudget = 8000
	cfg.BurstBaseline = 0.1e9
	cfg.BurstCreditBytes = 4 << 30 / CapacityScale * 8 // half the gp2 bank
	return cfg
}

// NeighborBackendConfig returns the shared storage backend of the
// multi-tenant noisy-neighbor studies: ESSD-1-class fabric and cluster
// serving several attached volumes, with a deliberately modest background
// cleaner so that aggressor overwrite churn accumulates in the pooled debt
// fast enough to drive cross-tenant throttling within a short simulated
// horizon (the Obs#2 coupling at fleet scale).
func NeighborBackendConfig() essd.BackendConfig {
	bcfg, _ := ESSD1Config().Split()
	bcfg.Cluster.CleanerRate = 0.15e9
	return bcfg
}

// NeighborVolumeConfig returns the per-volume half of a tenant on the
// shared neighbor backend: gp3-class budgets with a tight spare-capacity
// margin, so the pooled cleaning debt of a few bursty neighbors crosses
// the volume's throttle threshold while a solo tenant never does.
func NeighborVolumeConfig(name string) essd.VolumeConfig {
	_, vcfg := ESSD1Config().Split()
	vcfg.Name = name
	vcfg.Model = "gp3"
	vcfg.ThroughputBudget = 1.0e9
	vcfg.BudgetBurst = 16 << 20
	vcfg.IOPSBudget = 16000
	vcfg.SpareFrac = 0.04
	vcfg.ThrottleRate = 0.2e9
	return vcfg
}

// NewESSD1 builds the ESSD-1 device on the engine.
func NewESSD1(eng *sim.Engine, rng *sim.RNG) *essd.ESSD {
	return essd.New(eng, ESSD1Config(), rng)
}

// NewESSD2 builds the ESSD-2 device on the engine.
func NewESSD2(eng *sim.Engine, rng *sim.RNG) *essd.ESSD {
	return essd.New(eng, ESSD2Config(), rng)
}

// NewSSD builds the local SSD device on the engine.
func NewSSD(eng *sim.Engine, rng *sim.RNG) *ssd.SSD {
	return ssd.New(eng, SSDConfig(), rng)
}

// ByName constructs a device by profile key: "essd1", "essd2", "ssd",
// "gp3", or "pl1".
func ByName(name string, eng *sim.Engine, rng *sim.RNG) (blockdev.Device, error) {
	switch name {
	case "essd1":
		return NewESSD1(eng, rng), nil
	case "essd2":
		return NewESSD2(eng, rng), nil
	case "ssd":
		return NewSSD(eng, rng), nil
	case "gp3":
		return essd.New(eng, GP3Config(), rng), nil
	case "gp2":
		return essd.New(eng, GP2Config(), rng), nil
	case "gp2s":
		return essd.New(eng, GP2SmallConfig(), rng), nil
	case "pl1":
		return essd.New(eng, PL1Config(), rng), nil
	default:
		return nil, fmt.Errorf("profiles: unknown device %q (want essd1, essd2, ssd, gp3, gp2, gp2s, pl1)", name)
	}
}

// Names lists the valid ByName keys.
func Names() []string { return []string{"essd1", "essd2", "ssd", "gp3", "gp2", "gp2s", "pl1"} }

// ConfigByName returns the flat single-volume configuration for an
// essd-class profile key. Local-SSD profiles have no flat essd.Config and
// are rejected; use ByName for those.
func ConfigByName(name string) (essd.Config, error) {
	switch name {
	case "essd1":
		return ESSD1Config(), nil
	case "essd2":
		return ESSD2Config(), nil
	case "gp3":
		return GP3Config(), nil
	case "gp2":
		return GP2Config(), nil
	case "gp2s":
		return GP2SmallConfig(), nil
	case "pl1":
		return PL1Config(), nil
	case "ssd":
		return essd.Config{}, fmt.Errorf("profiles: %q is a local SSD with no shared backend", name)
	default:
		return essd.Config{}, fmt.Errorf("profiles: unknown device %q (want essd1, essd2, ssd, gp3, gp2, gp2s, pl1)", name)
	}
}

// ByNameQoS constructs a device like ByName but with a backend isolation
// policy and per-volume QoS share applied. With isolation disabled and no
// weight or reservation it is exactly ByName (any profile). Otherwise the
// profile must be essd-class: a local SSD has no shared backend to
// schedule, so asking to isolate one is a configuration error.
func ByNameQoS(name string, iso qos.Isolation, weight, reservedBps float64, eng *sim.Engine, rng *sim.RNG) (blockdev.Device, error) {
	if !iso.Enabled() && weight == 0 && reservedBps == 0 {
		return ByName(name, eng, rng)
	}
	cfg, err := ConfigByName(name)
	if err != nil {
		return nil, err
	}
	cfg.Isolation = iso
	cfg.Weight = weight
	cfg.ReservedRate = reservedBps
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return essd.New(eng, cfg, rng), nil
}
