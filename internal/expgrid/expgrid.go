package expgrid

import (
	"fmt"
	"math"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/trace"
	"essdsim/internal/workload"
	"essdsim/kv"
)

// Factory constructs a fresh device (with its own engine) for one
// experiment cell. seed decorrelates repeated constructions.
type Factory func(seed uint64) blockdev.Device

// NamedFactory is one value of a sweep's device axis. The name feeds the
// cell seed derivation, so it should be stable across runs (a profile name
// like "essd1", not a pointer-ish string).
type NamedFactory struct {
	Name string
	New  Factory
}

// Devices is a convenience constructor for a single-device axis.
func Devices(name string, f Factory) []NamedFactory {
	return []NamedFactory{{Name: name, New: f}}
}

// Precond selects how a cell's device is prepared before measurement.
type Precond uint8

// Preconditioning modes.
const (
	// PrecondAuto half-fills the device for pure-write patterns (a GC-free
	// window) and fully fills it otherwise (so reads hit data).
	PrecondAuto Precond = iota
	// PrecondWrites always uses the write-cell preparation (half fill).
	PrecondWrites
	// PrecondFull always fully, sequentially fills the device.
	PrecondFull
	// PrecondNone runs on the pristine device (e.g. sustained-write
	// experiments that measure the fill itself).
	PrecondNone
)

// Precondition prepares a device for a measurement cell. Write cells get a
// half-filled device (a GC-free window, as on a freshly provisioned or
// trimmed drive); read cells get a fully, sequentially written device (the
// layout after a fio fill pass).
func Precondition(dev blockdev.Device, forWrites bool) {
	fill := 1.0
	if forWrites {
		fill = 0.5
	}
	switch d := dev.(type) {
	case interface{ Precondition(float64) }:
		d.Precondition(fill)
	case interface{ Precondition(float64, bool) }:
		d.Precondition(fill, false)
	}
}

// Kind selects the per-cell workload family of a sweep.
type Kind uint8

// Sweep kinds.
const (
	// Closed runs workload.Run: a fixed queue depth of outstanding I/Os,
	// the paper's fio-style microbenchmark shape.
	Closed Kind = iota
	// Open runs workload.RunOpen: requests issued on an arrival schedule
	// regardless of completions, the regime where provisioned budgets and
	// burst credits dominate (Observation/Implication #4). The grid gains
	// Arrivals and RatesPerSec axes; QueueDepths is unused.
	Open
	// TraceReplay runs trace.Replay of Sweep.Trace once per device cell.
	// All axes other than Devices are unused.
	TraceReplay
	// TenantMix runs workload.RunTenants: several generators against
	// distinct volumes inside one engine, the shared-backend multi-tenant
	// regime. The grid gains an AggressorCounts axis and reuses
	// RatesPerSec (per-aggressor offered rate) and WriteRatiosPct
	// (aggressor write ratio); the Tenants hook builds each cell's engine
	// and tenant mix from those coordinates. Devices names backend
	// variants (factories may be nil — the hook constructs everything).
	TenantMix
	// KVMix runs kv.RunMix: several key-value tenants (LSM or page-store
	// engines on volumes of one shared backend) driven by open-loop
	// zipfian point reads and writes inside one engine. The grid gains
	// KVEngines, KVSkews, and KVValueSizes axes; the KV hook builds each
	// cell's engine and tenant set from those coordinates. Devices names
	// backend tiers (factories may be nil — the hook constructs
	// everything).
	KVMix
)

// String names the sweep kind.
func (k Kind) String() string {
	switch k {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case TraceReplay:
		return "trace"
	case TenantMix:
		return "tenants"
	case KVMix:
		return "kv"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Sweep declares an experiment grid: the cross product of its axes, plus
// the per-cell workload shape shared by every cell. Kind selects the
// workload family each cell runs; axes that a kind does not use are
// ignored by enumeration and validation.
type Sweep struct {
	// Kind selects the cell workload family (default Closed).
	Kind Kind

	// Axes. Devices is always required. Closed sweeps need Patterns,
	// BlockSizes, and QueueDepths; Open sweeps need Patterns, BlockSizes,
	// Arrivals, and RatesPerSec; TraceReplay sweeps need only Devices and
	// Trace. WriteRatiosPct is optional and multiplies only Mixed cells;
	// cells of every other pattern carry a write-ratio coordinate of -1
	// (so adding a ratio axis never re-seeds or duplicates them).
	Devices        []NamedFactory
	Patterns       []workload.Pattern
	BlockSizes     []int64
	QueueDepths    []int
	WriteRatiosPct []int

	// Open-loop axes (Kind == Open): every combination of arrival shape
	// and offered rate becomes a cell issuing OpenOps requests on that
	// schedule (default 2000).
	Arrivals    []workload.Arrival
	RatesPerSec []float64
	OpenOps     uint64

	// OpenSampleInterval overrides the completion-timeline bucket width of
	// open cells (default 10 ms). OpenWindowPercentiles additionally keeps
	// a latency histogram per bucket so windowed p99/p99.9 can be read
	// from the result (see workload.OpenSpec.WindowPercentiles).
	OpenSampleInterval    sim.Duration
	OpenWindowPercentiles bool

	// Trace holds the records a TraceReplay sweep replays, identically,
	// on each device cell. FitTrace additionally passes the records
	// through trace.Fit against each cell's own device geometry first —
	// the standard preparation for foreign (e.g. MSR-Cambridge) traces
	// that address volumes far larger than the scaled simulated devices.
	Trace    []trace.Record
	FitTrace bool

	// Tenant-mix axis (Kind == TenantMix): each cell carries an aggressor
	// count alongside its per-aggressor rate (RatesPerSec) and write
	// ratio (WriteRatiosPct, applied unconditionally for this kind).
	// Include 0 for solo-victim control cells.
	AggressorCounts []int

	// Tenants builds a TenantMix cell's engine and tenant mix from the
	// cell coordinates. Like a device Factory, the hook's semantics are
	// outside the cache key: it must be a pure function of the cell (seed
	// included), and callers changing what it builds should change the
	// sweep Label with it.
	Tenants func(c Cell) (*sim.Engine, []workload.Tenant)

	// InspectMix is Inspect's TenantMix counterpart: it runs on the
	// worker after the cell's mix drains, with every tenant's device
	// still alive, and its return value is stored in CellResult.Info.
	InspectMix func(tenants []workload.Tenant, c Cell) any

	// KV-mix axes (Kind == KVMix): every engine design × key skew ×
	// value size (× device tier) becomes a cell of concurrent KV tenants.
	// Engine names are opaque to the grid — the KV hook interprets them —
	// but skews must lie in [0, 1) and value sizes must be positive.
	KVEngines    []string
	KVSkews      []float64
	KVValueSizes []int64

	// KV builds a KVMix cell's engine and tenant set from the cell
	// coordinates. Like the Tenants hook, its semantics are outside the
	// cache key: it must be a pure function of the cell (seed included),
	// and callers changing what it builds should change the sweep Label
	// with it.
	KV func(c Cell) (*sim.Engine, []kv.MixTenant)

	// InspectKV is Inspect's KVMix counterpart: it runs on the worker
	// after the cell's tenants drain, with every engine and device still
	// alive, and its return value is stored in CellResult.Info.
	InspectKV func(tenants []kv.MixTenant, c Cell) any

	// CellDuration bounds each closed-loop cell's measurement window
	// (default 500 ms); Warmup is excluded from statistics (default 50 ms;
	// negative values mean no warmup at all). When CapMultiple is > 0 the
	// cell instead stops after CapMultiple × device capacity bytes, with
	// no warmup — the sustained-write shape. Open and TraceReplay cells
	// run to their request count / trace end and ignore all three.
	CellDuration sim.Duration
	Warmup       sim.Duration
	CapMultiple  float64

	Precondition Precond

	// Inspect, when non-nil, runs on the worker after the cell's workload
	// completes, while the measured device is still alive; its return
	// value is stored in CellResult.Info. Use it to capture post-run
	// device state (throttle flags, write amplification, GC counters)
	// that the workload Result alone cannot show. It must not touch
	// anything shared between cells.
	Inspect func(dev blockdev.Device, c Cell) any

	// Cache, when non-nil, memoizes successful cell results keyed by the
	// cell seed plus a fingerprint of the sweep's result-shaping settings:
	// a cell whose coordinates and settings match a cached entry returns
	// the stored measurement without constructing a device. Results served
	// from the cache are shared pointers — treat them as read-only.
	Cache *Cache

	// ForceRun bypasses cache reads (cells always simulate) while still
	// storing fresh results. Observability runs set it: a cache-warm cell
	// would return its stored measurement without producing any trace or
	// probe samples. The cache fingerprint is unchanged, so forced runs
	// refresh the same entries ordinary runs read.
	ForceRun bool

	// DecodeInfo rehydrates an Inspect capture loaded from a persisted
	// cache file (raw JSON in, the same concrete type Inspect returns
	// out). Sweeps that use both Cache persistence and Inspect must set
	// it; without it, disk-loaded entries miss and the cell re-runs.
	DecodeInfo func(raw []byte) (any, error)

	// Seed is the root seed; Label further decorrelates sweeps that share
	// a root seed and coordinates (e.g. two experiments on one CLI seed).
	// Both feed CellSeed.
	Seed  uint64
	Label string

	// Variant distinguishes sweeps that must NOT share cache entries but
	// keep the same cell seeds: it feeds the cache fingerprint (when
	// non-empty; "" keeps the pre-Variant fingerprint) and not the cell
	// seeds. The isolation axis uses it, so each policy variant caches
	// separately. Variants share arrival streams only within one
	// aggressor count (the cell seed hashes the count). Service times
	// come from per-component streams drawn in event order, so they
	// differ between variants, and a difference between variants is not
	// a pure scheduling effect.
	Variant string

	// fingerprint memoizes the cache fingerprint; set by withDefaults.
	fingerprint uint64
}

func (s Sweep) withDefaults() Sweep {
	if s.CellDuration <= 0 {
		s.CellDuration = 500 * sim.Millisecond
	}
	if s.Warmup == 0 {
		s.Warmup = 50 * sim.Millisecond
	} else if s.Warmup < 0 {
		s.Warmup = 0
	}
	if s.Kind == Open && s.OpenOps == 0 {
		s.OpenOps = 2000
	}
	s.fingerprint = s.fp()
	return s
}

// fp computes the fingerprint of the (already defaulted) sweep settings.
func (s Sweep) fp() uint64 {
	h := newCoordHash()
	h.str("essdsim-cache-v1")
	h.word(uint64(s.Kind))
	h.word(uint64(s.CellDuration))
	h.word(uint64(int64(s.Warmup) + 1))
	h.word(math.Float64bits(s.CapMultiple))
	h.word(uint64(s.Precondition))
	h.word(s.OpenOps)
	h.word(uint64(s.OpenSampleInterval))
	if s.OpenWindowPercentiles {
		h.str("winpct")
	}
	if s.FitTrace {
		h.str("fittrace")
	}
	if s.Variant != "" {
		h.str("variant")
		h.str(s.Variant)
	}
	for _, r := range s.Trace {
		h.word(uint64(r.At))
		h.word(uint64(r.Op))
		h.word(uint64(r.Offset))
		h.word(uint64(r.Size))
	}
	return h.finish()
}

// Validate reports a descriptive error for empty or nonsensical axes of
// the sweep's kind. Axis values are checked here rather than left to flow
// into cell construction: a bad entry fails the sweep before any cell
// simulates, with the axis named, instead of as a mid-sweep cell panic.
func (s Sweep) Validate() error {
	if len(s.Devices) == 0 {
		return fmt.Errorf("expgrid: sweep has no device axis")
	}
	// The write-ratio axis admits the documented -1 sentinel (pure-read
	// Mixed cells; "hook's choice" for tenant mixes) but nothing else
	// outside a percentage.
	for _, wr := range s.WriteRatiosPct {
		if wr < -1 || wr > 100 {
			return fmt.Errorf("expgrid: write ratio %d%% out of [-1, 100]", wr)
		}
	}
	for _, d := range s.Devices {
		// TenantMix and KVMix cells are built entirely by their hooks;
		// their device axis only names backend variants/tiers.
		if d.New == nil && s.Kind != TenantMix && s.Kind != KVMix {
			return fmt.Errorf("expgrid: device %q has a nil factory", d.Name)
		}
	}
	switch s.Kind {
	case Open:
		switch {
		case len(s.Patterns) == 0:
			return fmt.Errorf("expgrid: open sweep has no pattern axis")
		case len(s.BlockSizes) == 0:
			return fmt.Errorf("expgrid: open sweep has no block-size axis")
		case len(s.Arrivals) == 0:
			return fmt.Errorf("expgrid: open sweep has no arrival axis")
		case len(s.RatesPerSec) == 0:
			return fmt.Errorf("expgrid: open sweep has no rate axis")
		}
		for _, r := range s.RatesPerSec {
			if r <= 0 {
				return fmt.Errorf("expgrid: open sweep rate %v not positive", r)
			}
		}
		for _, bs := range s.BlockSizes {
			if bs <= 0 {
				return fmt.Errorf("expgrid: open sweep block size %d not positive", bs)
			}
		}
	case TraceReplay:
		if len(s.Trace) == 0 {
			return fmt.Errorf("expgrid: trace sweep has no records")
		}
	case TenantMix:
		switch {
		case s.Tenants == nil:
			return fmt.Errorf("expgrid: tenant sweep has no Tenants hook")
		case len(s.AggressorCounts) == 0:
			return fmt.Errorf("expgrid: tenant sweep has no aggressor-count axis")
		case len(s.RatesPerSec) == 0:
			return fmt.Errorf("expgrid: tenant sweep has no rate axis")
		}
		for _, n := range s.AggressorCounts {
			if n < 0 {
				return fmt.Errorf("expgrid: tenant sweep aggressor count %d negative", n)
			}
		}
		for _, r := range s.RatesPerSec {
			if r <= 0 {
				return fmt.Errorf("expgrid: tenant sweep rate %v not positive", r)
			}
		}
	case KVMix:
		switch {
		case s.KV == nil:
			return fmt.Errorf("expgrid: kv sweep has no KV hook")
		case len(s.KVEngines) == 0:
			return fmt.Errorf("expgrid: kv sweep has no engine axis")
		case len(s.KVSkews) == 0:
			return fmt.Errorf("expgrid: kv sweep has no skew axis")
		case len(s.KVValueSizes) == 0:
			return fmt.Errorf("expgrid: kv sweep has no value-size axis")
		}
		for _, e := range s.KVEngines {
			if e == "" {
				return fmt.Errorf("expgrid: kv sweep has an empty engine name")
			}
		}
		for _, th := range s.KVSkews {
			if !(th >= 0 && th < 1) {
				return fmt.Errorf("expgrid: kv sweep skew %v outside [0, 1)", th)
			}
		}
		for _, vs := range s.KVValueSizes {
			if vs <= 0 {
				return fmt.Errorf("expgrid: kv sweep value size %d not positive", vs)
			}
		}
	default:
		switch {
		case len(s.Patterns) == 0:
			return fmt.Errorf("expgrid: sweep has no pattern axis")
		case len(s.BlockSizes) == 0:
			return fmt.Errorf("expgrid: sweep has no block-size axis")
		case len(s.QueueDepths) == 0:
			return fmt.Errorf("expgrid: sweep has no queue-depth axis")
		}
		for _, bs := range s.BlockSizes {
			if bs <= 0 {
				return fmt.Errorf("expgrid: block size %d not positive", bs)
			}
		}
		for _, qd := range s.QueueDepths {
			if qd <= 0 {
				return fmt.Errorf("expgrid: queue depth %d not positive", qd)
			}
		}
	}
	return nil
}

// Cell is one point of the grid: its coordinates, its position in the
// deterministic enumeration order, and its derived seed.
type Cell struct {
	Index       int    // position in enumeration order
	DeviceIndex int    // index into Sweep.Devices
	DeviceName  string // Sweep.Devices[DeviceIndex].Name

	Pattern       workload.Pattern
	BlockSize     int64
	QueueDepth    int // 0 for Open and TraceReplay cells
	WriteRatioPct int // -1 when the sweep has no write-ratio axis

	// Open-loop coordinates; zero for Closed and TraceReplay cells.
	Arrival    workload.Arrival
	RatePerSec float64

	// Aggressors is the TenantMix aggressor count (0 elsewhere, and for
	// solo-victim control cells).
	Aggressors int

	// KVMix coordinates; zero for every other kind.
	KVEngine  string  // storage-engine design ("lsm", "pagestore")
	KVSkew    float64 // zipfian key skew theta in [0, 1)
	ValueSize int64   // put value size in bytes

	Seed uint64 // derived from the coordinates, independent of Index

	tenantMix bool // distinguishes TenantMix cells in describe/run
	kvMix     bool // distinguishes KVMix cells in describe/run
}

// describe renders the cell's coordinates for error messages.
func (c Cell) describe() string {
	switch {
	case c.kvMix:
		return fmt.Sprintf("%s kv %s skew=%g val=%d", c.DeviceName, c.KVEngine, c.KVSkew, c.ValueSize)
	case c.tenantMix:
		return fmt.Sprintf("%s tenants aggr=%d @%.0f/s wr=%d", c.DeviceName, c.Aggressors, c.RatePerSec, c.WriteRatioPct)
	case c.RatePerSec > 0:
		return fmt.Sprintf("%s %s bs=%d %s@%.0f/s", c.DeviceName, c.Pattern, c.BlockSize, c.Arrival, c.RatePerSec)
	case c.BlockSize == 0:
		return fmt.Sprintf("%s trace", c.DeviceName)
	default:
		return fmt.Sprintf("%s %s bs=%d qd=%d", c.DeviceName, c.Pattern, c.BlockSize, c.QueueDepth)
	}
}

// CellResult pairs a cell with its measurement: Res for Closed cells, Open
// for Open cells, Replay for TraceReplay cells, Mix for TenantMix cells;
// the others are nil. Err is set when the cell failed (e.g. an invalid
// workload spec), and every measurement field is nil in that case.
type CellResult struct {
	Cell
	Device string // constructed device's display name
	Res    *workload.Result
	Open   *workload.OpenResult
	Replay *trace.ReplayResult
	Mix    []*workload.TenantResult // TenantMix cells: per-tenant results
	KV     []*kv.MixResult          // KVMix cells: per-tenant results
	Info   any                      // Sweep.Inspect's capture of post-run device state, or nil
	Cached bool                     // served from Sweep.Cache instead of a fresh simulation
	Err    error
}

// Cells enumerates the grid of the sweep's kind in deterministic row-major
// order. Closed: devices, patterns, block sizes, queue depths, write
// ratios. Open: devices, patterns, block sizes, arrivals, rates, write
// ratios. TraceReplay: devices. The write-ratio axis multiplies only Mixed
// cells; other patterns get the single sentinel coordinate -1, so their
// count and seeds are unaffected by the axis.
func (s Sweep) Cells() []Cell {
	switch s.Kind {
	case Open:
		return s.openCells()
	case TraceReplay:
		return s.traceCells()
	case TenantMix:
		return s.tenantCells()
	case KVMix:
		return s.kvCells()
	default:
		return s.closedCells()
	}
}

func (s Sweep) mixedRatios(p workload.Pattern) []int {
	if p == workload.Mixed && len(s.WriteRatiosPct) > 0 {
		return s.WriteRatiosPct
	}
	return []int{-1}
}

func (s Sweep) closedCells() []Cell {
	cells := make([]Cell, 0, len(s.Devices)*len(s.Patterns)*len(s.BlockSizes)*len(s.QueueDepths))
	for di, d := range s.Devices {
		for _, p := range s.Patterns {
			for _, bs := range s.BlockSizes {
				for _, qd := range s.QueueDepths {
					for _, wr := range s.mixedRatios(p) {
						cells = append(cells, Cell{
							Index:         len(cells),
							DeviceIndex:   di,
							DeviceName:    d.Name,
							Pattern:       p,
							BlockSize:     bs,
							QueueDepth:    qd,
							WriteRatioPct: wr,
							Seed:          CellSeed(s.Seed, s.Label, d.Name, p, bs, qd, wr),
						})
					}
				}
			}
		}
	}
	return cells
}

func (s Sweep) openCells() []Cell {
	cells := make([]Cell, 0, len(s.Devices)*len(s.Patterns)*len(s.BlockSizes)*len(s.Arrivals)*len(s.RatesPerSec))
	for di, d := range s.Devices {
		for _, p := range s.Patterns {
			for _, bs := range s.BlockSizes {
				for _, a := range s.Arrivals {
					for _, rate := range s.RatesPerSec {
						for _, wr := range s.mixedRatios(p) {
							cells = append(cells, Cell{
								Index:         len(cells),
								DeviceIndex:   di,
								DeviceName:    d.Name,
								Pattern:       p,
								BlockSize:     bs,
								WriteRatioPct: wr,
								Arrival:       a,
								RatePerSec:    rate,
								Seed:          OpenCellSeed(s.Seed, s.Label, d.Name, p, bs, a, rate, wr),
							})
						}
					}
				}
			}
		}
	}
	return cells
}

// tenantCells enumerates devices × aggressor counts × per-aggressor rates
// × aggressor write ratios. Unlike closed/open grids the write-ratio axis
// applies to every tenant cell (the aggressor pattern is the hook's
// choice, not a coordinate); an empty axis yields the single sentinel -1.
func (s Sweep) tenantCells() []Cell {
	ratios := s.WriteRatiosPct
	if len(ratios) == 0 {
		ratios = []int{-1}
	}
	cells := make([]Cell, 0, len(s.Devices)*len(s.AggressorCounts)*len(s.RatesPerSec)*len(ratios))
	for di, d := range s.Devices {
		for _, n := range s.AggressorCounts {
			for _, rate := range s.RatesPerSec {
				for _, wr := range ratios {
					cells = append(cells, Cell{
						Index:         len(cells),
						DeviceIndex:   di,
						DeviceName:    d.Name,
						WriteRatioPct: wr,
						RatePerSec:    rate,
						Aggressors:    n,
						Seed:          MixCellSeed(s.Seed, s.Label, d.Name, n, rate, wr),
						tenantMix:     true,
					})
				}
			}
		}
	}
	return cells
}

// kvCells enumerates devices (backend tiers) × engine designs × key skews
// × value sizes. Per-tenant shape (tenant count, rate, ops, read
// fraction) is the KV hook's choice, not a coordinate — fold it into the
// sweep Label, the same contract as the Tenants hook.
func (s Sweep) kvCells() []Cell {
	cells := make([]Cell, 0, len(s.Devices)*len(s.KVEngines)*len(s.KVSkews)*len(s.KVValueSizes))
	for di, d := range s.Devices {
		for _, e := range s.KVEngines {
			for _, th := range s.KVSkews {
				for _, vs := range s.KVValueSizes {
					cells = append(cells, Cell{
						Index:         len(cells),
						DeviceIndex:   di,
						DeviceName:    d.Name,
						WriteRatioPct: -1,
						KVEngine:      e,
						KVSkew:        th,
						ValueSize:     vs,
						Seed:          KVCellSeed(s.Seed, s.Label, d.Name, e, th, vs),
						kvMix:         true,
					})
				}
			}
		}
	}
	return cells
}

func (s Sweep) traceCells() []Cell {
	cells := make([]Cell, 0, len(s.Devices))
	for di, d := range s.Devices {
		cells = append(cells, Cell{
			Index:         di,
			DeviceIndex:   di,
			DeviceName:    d.Name,
			WriteRatioPct: -1,
			Seed:          TraceCellSeed(s.Seed, s.Label, d.Name),
		})
	}
	return cells
}

// coordHash is the FNV-1a accumulator behind the seed derivations; finish
// applies a splitmix64 finalizer so adjacent coordinates land far apart in
// seed space.
type coordHash uint64

const (
	coordOffset = 0xcbf29ce484222325
	coordPrime  = 0x100000001b3
)

func newCoordHash() coordHash { return coordOffset }

func (h *coordHash) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x = (x ^ (v & 0xff)) * coordPrime
		v >>= 8
	}
	*h = coordHash(x)
}

func (h *coordHash) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * coordPrime
	}
	x = (x ^ 0xff) * coordPrime // terminator so "ab","c" != "a","bc"
	*h = coordHash(x)
}

func (h coordHash) finish() uint64 {
	x := uint64(h)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CellSeed derives a closed-loop cell's RNG seed as a pure hash of the
// root seed, the sweep label, and the cell coordinates. It is deliberately
// independent of the cell's enumeration index: subsetting or reordering
// axes never changes the seed (and hence the measurement) of a surviving
// cell. Open and TraceReplay cells use OpenCellSeed / TraceCellSeed, which
// extend the same hash with their own coordinates.
func CellSeed(root uint64, label, device string, p workload.Pattern, bs int64, qd, ratioPct int) uint64 {
	h := newCoordHash()
	h.word(root)
	h.str(label)
	h.str(device)
	h.word(uint64(p) + 1)
	h.word(uint64(bs))
	h.word(uint64(qd))
	h.word(uint64(int64(ratioPct) + 2))
	return h.finish()
}

// OpenCellSeed derives an open-loop cell's seed from its coordinates,
// including the arrival shape and offered rate. A distinguishing tag keeps
// open cells decorrelated from closed cells that share the remaining
// coordinates.
func OpenCellSeed(root uint64, label, device string, p workload.Pattern, bs int64, a workload.Arrival, ratePerSec float64, ratioPct int) uint64 {
	h := newCoordHash()
	h.word(root)
	h.str(label)
	h.str(device)
	h.str("open")
	h.word(uint64(p) + 1)
	h.word(uint64(bs))
	h.word(uint64(a) + 1)
	h.word(math.Float64bits(ratePerSec))
	h.word(uint64(int64(ratioPct) + 2))
	return h.finish()
}

// MixCellSeed derives a tenant-mix cell's seed from its coordinates: the
// backend variant name, aggressor count, per-aggressor offered rate, and
// aggressor write ratio. A distinguishing tag keeps tenant cells
// decorrelated from open cells sharing rate coordinates.
func MixCellSeed(root uint64, label, device string, aggressors int, ratePerSec float64, ratioPct int) uint64 {
	h := newCoordHash()
	h.word(root)
	h.str(label)
	h.str(device)
	h.str("tenants")
	h.word(uint64(aggressors) + 1)
	h.word(math.Float64bits(ratePerSec))
	h.word(uint64(int64(ratioPct) + 2))
	return h.finish()
}

// KVCellSeed derives a KV-mix cell's seed from its coordinates: the
// backend tier name, engine design, key skew, and value size. A
// distinguishing tag keeps KV cells decorrelated from the other kinds'
// cells sharing a device name.
func KVCellSeed(root uint64, label, device, engine string, skew float64, valueSize int64) uint64 {
	h := newCoordHash()
	h.word(root)
	h.str(label)
	h.str(device)
	h.str("kv")
	h.str(engine)
	h.word(math.Float64bits(skew))
	h.word(uint64(valueSize))
	return h.finish()
}

// TraceCellSeed derives a trace-replay cell's seed. The trace itself is
// deterministic, so only the device identity needs decorrelating.
func TraceCellSeed(root uint64, label, device string) uint64 {
	h := newCoordHash()
	h.word(root)
	h.str(label)
	h.str(device)
	h.str("trace")
	return h.finish()
}

// run executes one cell: fresh device, precondition, one workload of the
// sweep's kind. Panics from invalid specs (or device bugs) are captured
// into CellResult.Err so one bad cell fails the sweep cleanly instead of
// killing the worker pool.
func (s Sweep) run(c Cell) (out CellResult) {
	needInfo := s.Inspect != nil || s.InspectMix != nil || s.InspectKV != nil
	if s.Cache != nil && !s.ForceRun {
		if res, ok := s.Cache.lookup(s.fingerprint, c, needInfo, s.DecodeInfo); ok {
			return res
		}
	}
	out = CellResult{Cell: c}
	defer func() {
		if p := recover(); p != nil {
			out.Err = fmt.Errorf("expgrid: cell %d (%s): %v", c.Index, c.describe(), p)
			out.Res, out.Open, out.Replay, out.Mix, out.KV = nil, nil, nil, nil, nil
		}
		if s.Cache != nil && out.Err == nil {
			s.Cache.store(s.fingerprint, out)
		}
	}()
	if s.Kind == KVMix {
		// KV cells own their whole setup: the hook builds the engine,
		// backend, volumes, storage engines, and preconditioning from the
		// coordinates.
		eng, tenants := s.KV(c)
		out.Device = c.DeviceName
		out.KV = kv.RunMix(eng, tenants)
		if s.InspectKV != nil {
			out.Info = s.InspectKV(tenants, c)
		}
		// Hand pooled structures back for the next cell: each storage
		// engine first (it still references its device), then the device,
		// then the shared simulation engine. Deliberately skipped on the
		// panic path so a half-built cell can never poison the pools.
		for _, t := range tenants {
			dev := t.Engine.Device()
			if r, ok := t.Engine.(interface{ Release() }); ok {
				r.Release()
			}
			releaseDevice(dev)
		}
		sim.ReleaseEngine(eng)
		return out
	}
	if s.Kind == TenantMix {
		// Tenant cells own their whole setup: the hook builds the engine,
		// backend(s), volumes, and preconditioning from the coordinates.
		eng, tenants := s.Tenants(c)
		out.Device = c.DeviceName
		out.Mix = workload.RunTenants(eng, tenants)
		if s.InspectMix != nil {
			out.Info = s.InspectMix(tenants, c)
		}
		// The cell is measured and inspected: hand pooled buffers and the
		// engine back for the next cell. Deliberately skipped on the panic
		// path (the deferred recover returns before reaching here), so a
		// half-built cell can never poison the pools.
		for _, t := range tenants {
			releaseDevice(t.Dev)
		}
		sim.ReleaseEngine(eng)
		return out
	}
	dev := s.Devices[c.DeviceIndex].New(c.Seed)
	out.Device = dev.Name()
	switch s.Precondition {
	case PrecondAuto:
		// Trace cells mix reads and writes, so the auto mode gives them a
		// fully written device (reads must hit data).
		Precondition(dev, s.Kind != TraceReplay && c.Pattern.IsWrite())
	case PrecondWrites:
		Precondition(dev, true)
	case PrecondFull:
		Precondition(dev, false)
	}
	switch s.Kind {
	case Open:
		spec := workload.OpenSpec{
			Pattern:           c.Pattern,
			BlockSize:         c.BlockSize,
			RatePerSec:        c.RatePerSec,
			Arrival:           c.Arrival,
			Count:             s.OpenOps,
			SampleInterval:    s.OpenSampleInterval,
			WindowPercentiles: s.OpenWindowPercentiles,
			Seed:              c.Seed,
		}
		if c.WriteRatioPct >= 0 {
			spec.WriteRatio = float64(c.WriteRatioPct) / 100
		}
		out.Open = workload.RunOpen(dev, spec)
	case TraceReplay:
		recs := s.Trace
		if s.FitTrace {
			recs = trace.Fit(recs, dev.Capacity(), int64(dev.BlockSize()))
		}
		out.Replay = trace.Replay(dev, recs)
	default:
		spec := workload.Spec{
			Pattern:    c.Pattern,
			BlockSize:  c.BlockSize,
			QueueDepth: c.QueueDepth,
			Duration:   s.CellDuration,
			Warmup:     s.Warmup,
			Seed:       c.Seed,
		}
		if c.WriteRatioPct >= 0 {
			spec.WriteRatio = float64(c.WriteRatioPct) / 100
		}
		if s.CapMultiple > 0 {
			spec.TotalBytes = int64(s.CapMultiple * float64(dev.Capacity()))
			spec.Duration = 0
			spec.Warmup = 0
		}
		out.Res = workload.Run(dev, spec)
	}
	if s.Inspect != nil {
		out.Info = s.Inspect(dev, c)
	}
	releaseDevice(dev)
	sim.ReleaseEngine(dev.Engine())
	return out
}

// releaseDevice hands a device's pooled buffers back once its cell is fully
// measured and inspected. Devices without pooled state are left alone.
// Inspect hooks must therefore capture values, not live device internals —
// which the Inspect contract (no cross-cell sharing) already implies.
func releaseDevice(dev blockdev.Device) {
	if r, ok := dev.(interface{ ReleaseResources() }); ok {
		r.ReleaseResources()
	}
}
