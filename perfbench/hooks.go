package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"time"

	"essdsim/internal/blockdev"
	"essdsim/internal/essd"
	"essdsim/internal/expgrid"
	"essdsim/internal/sim"
	"essdsim/internal/ssd"
	"essdsim/internal/workload"
	"essdsim/kv"
)

// cellRec is what the hooks record about one cell. Times are offsets from
// the pass start: start at the factory/Tenants/KV hook's entry, built at
// its return, inspect at the Inspect hook's entry, done at its return.
type cellRec struct {
	sweep                       int
	start, built, inspect, done time.Duration
	cnt                         counts
	checkErr                    string
}

func (c cellRec) total() time.Duration { return c.done - c.start }

// counts are one cell's layer counters, read from public accessors while
// the cell's devices are still alive.
type counts struct {
	steps uint64 // sim.Engine events executed

	vols                           int    // essd volumes (flows)
	reads, writes                  uint64 // essd host requests
	readBytes, writeBytes          int64
	subReads, subWrites            uint64 // essd chunk sub-operations
	clReads, clWrites, clReplWrite uint64 // cluster node operations
	netBytes                       int64  // fabric payload, both directions

	ssdCells, ssdHalfFills, ssdFullFills int
	ssdReads, ssdWrites                  uint64
	ftlHostSlots, ftlGCSlots             uint64
	flashPrograms, ssdWriteByte          uint64

	kvPuts, kvGets          uint64
	kvDevReads, kvDevWrites uint64
	kvDevReadB, kvDevWriteB int64
	kvHits, kvMisses        uint64
	kvLSMPuts, kvLSMGets    uint64
	kvPagePuts, kvPageGets  uint64
	zipfBuilds              int
	issued                  uint64 // device requests issued (closed-loop cells)
}

func (c *counts) add(o counts) {
	c.steps += o.steps
	c.vols += o.vols
	c.reads += o.reads
	c.writes += o.writes
	c.readBytes += o.readBytes
	c.writeBytes += o.writeBytes
	c.subReads += o.subReads
	c.subWrites += o.subWrites
	c.clReads += o.clReads
	c.clWrites += o.clWrites
	c.clReplWrite += o.clReplWrite
	c.netBytes += o.netBytes
	c.ssdCells += o.ssdCells
	c.ssdHalfFills += o.ssdHalfFills
	c.ssdFullFills += o.ssdFullFills
	c.ssdReads += o.ssdReads
	c.ssdWrites += o.ssdWrites
	c.ftlHostSlots += o.ftlHostSlots
	c.ftlGCSlots += o.ftlGCSlots
	c.flashPrograms += o.flashPrograms
	c.ssdWriteByte += o.ssdWriteByte
	c.kvPuts += o.kvPuts
	c.kvGets += o.kvGets
	c.kvDevReads += o.kvDevReads
	c.kvDevWrites += o.kvDevWrites
	c.kvDevReadB += o.kvDevReadB
	c.kvDevWriteB += o.kvDevWriteB
	c.kvHits += o.kvHits
	c.kvMisses += o.kvMisses
	c.kvLSMPuts += o.kvLSMPuts
	c.kvLSMGets += o.kvLSMGets
	c.kvPagePuts += o.kvPagePuts
	c.kvPageGets += o.kvPageGets
	c.zipfBuilds += o.zipfBuilds
	c.issued += o.issued
}

// countVolumes reads the counters of essd volumes sharing one backend and
// checks that the per-volume accounting sums to the cluster and fabric
// totals. It returns a description of the first violated rule, or "".
func countVolumes(c *counts, vols []*essd.ESSD) string {
	if len(vols) == 0 {
		return ""
	}
	be := vols[0].Backend()
	c.vols += len(vols)
	for _, v := range vols {
		k := v.Counters()
		c.reads += k.Reads
		c.writes += k.Writes
		c.readBytes += k.ReadBytes
		c.writeBytes += k.WriteBytes
		c.subReads += k.SubReads
		c.subWrites += k.SubWrites
	}
	cl := be.Cluster()
	var nodeW, nodeR uint64
	for i := 0; i < cl.NumNodes(); i++ {
		s := cl.NodeStats(i)
		nodeW += s.Writes
		nodeR += s.Reads
		c.clReplWrite += s.ReplWrites
	}
	c.clWrites += nodeW
	c.clReads += nodeR
	net := be.Network()
	c.netBytes += net.MovedUp() + net.MovedDown()
	var volW, volR uint64
	var up, down int64
	for _, s := range be.VolumeStats() {
		volW += s.Writes
		volR += s.Reads
		up += s.FabricUp
		down += s.FabricDown
	}
	var subW, subR uint64
	for _, v := range be.Volumes() {
		k := v.Counters()
		subW += k.SubWrites
		subR += k.SubReads
	}
	switch {
	case volW != nodeW || volR != nodeR:
		return fmt.Sprintf("volume cluster ops %d/%d (w/r) != node totals %d/%d", volW, volR, nodeW, nodeR)
	case up != net.MovedUp() || down != net.MovedDown():
		return fmt.Sprintf("volume fabric bytes %d/%d (up/down) != network totals %d/%d", up, down, net.MovedUp(), net.MovedDown())
	case subW != volW || subR != volR:
		return fmt.Sprintf("essd sub-ops %d/%d (w/r) != cluster ops %d/%d", subW, subR, volW, volR)
	}
	return ""
}

// countDevice reads one closed-loop cell's device: an essd volume on a
// private backend, or the local SSD with its FTL and flash array. fill is
// the preconditioning the cell received (0 none, 0.5 or 1).
func countDevice(c *counts, dev blockdev.Device, fill float64) string {
	c.steps += dev.Engine().Steps()
	switch d := dev.(type) {
	case *essd.ESSD:
		k := d.Counters()
		c.issued += k.Reads + k.Writes
		return countVolumes(c, []*essd.ESSD{d})
	case *ssd.SSD:
		k := d.Counters()
		f := d.FTL().Counters()
		c.ssdCells++
		switch fill {
		case 0.5:
			c.ssdHalfFills++
		case 1:
			c.ssdFullFills++
		}
		c.ssdReads += k.Reads
		c.ssdWrites += k.Writes
		c.ssdWriteByte += uint64(k.WriteBytes)
		c.issued += k.Reads + k.Writes
		c.ftlHostSlots += f.HostSlots
		c.ftlGCSlots += f.GCSlots
		c.flashPrograms += d.FlashCounters().UnitPrograms
	}
	return ""
}

// since returns the offset of now from t0.
func since(t0 time.Time) time.Duration { return time.Since(t0) }

// instrument returns a copy of sw whose cell hooks are the benchmark's own:
// the device factory (closed-loop sweeps) or the Tenants/KV hook stamps a
// cell's start and build end, and the Inspect* hook stamps the end of its
// run, reads the layer counters and checks the conservation rules —
// microseconds per cell against milliseconds of simulation — before
// calling the suite's own Inspect. recs is indexed by Cell.Index; each cell is
// written by exactly one worker and read after the sweep returns.
func instrument(sw expgrid.Sweep, sweep int, recs []cellRec, t0 time.Time) expgrid.Sweep {
	stamp := func(i int) *cellRec { r := &recs[i]; r.sweep = sweep; return r }
	switch sw.Kind {
	case expgrid.TenantMix:
		build, inspect := sw.Tenants, sw.InspectMix
		sw.Tenants = func(c expgrid.Cell) (*sim.Engine, []workload.Tenant) {
			r := stamp(c.Index)
			r.start = since(t0)
			eng, ts := build(c)
			r.built = since(t0)
			return eng, ts
		}
		sw.InspectMix = func(ts []workload.Tenant, c expgrid.Cell) any {
			r := &recs[c.Index]
			r.inspect = since(t0)
			r.cnt.steps = ts[0].Dev.Engine().Steps()
			vols := make([]*essd.ESSD, 0, len(ts))
			for _, t := range ts {
				if v, ok := t.Dev.(*essd.ESSD); ok {
					vols = append(vols, v)
				}
			}
			r.checkErr = countVolumes(&r.cnt, backendVolumes(vols))
			var info any
			if inspect != nil {
				info = inspect(ts, c)
			}
			r.done = since(t0)
			return info
		}
	case expgrid.KVMix:
		build, inspect := sw.KV, sw.InspectKV
		sw.KV = func(c expgrid.Cell) (*sim.Engine, []kv.MixTenant) {
			r := stamp(c.Index)
			r.start = since(t0)
			eng, ts := build(c)
			r.built = since(t0)
			return eng, ts
		}
		sw.InspectKV = func(ts []kv.MixTenant, c expgrid.Cell) any {
			r := &recs[c.Index]
			r.inspect = since(t0)
			r.cnt.steps = ts[0].Engine.Device().Engine().Steps()
			vols := make([]*essd.ESSD, 0, len(ts))
			for _, t := range ts {
				countKV(&r.cnt, t.Engine)
				if v, ok := t.Engine.Device().(*essd.ESSD); ok {
					vols = append(vols, v)
				}
			}
			r.cnt.zipfBuilds = len(ts)
			r.checkErr = countVolumes(&r.cnt, backendVolumes(vols))
			var info any
			if inspect != nil {
				info = inspect(ts, c)
			}
			r.done = since(t0)
			return info
		}
	default:
		// Closed-loop factories see only the cell seed; seeds are unique
		// within a sweep (validate checks), so they map back to cells.
		index := map[uint64]int{}
		fills := map[int]float64{}
		for _, c := range sw.Cells() {
			index[c.Seed] = c.Index
			fills[c.Index] = precondFill(sw, c)
		}
		devs := slices.Clone(sw.Devices)
		for i := range devs {
			f := devs[i].New
			devs[i].New = func(seed uint64) blockdev.Device {
				r := stamp(index[seed])
				r.start = since(t0)
				dev := f(seed)
				r.built = since(t0)
				return dev
			}
		}
		sw.Devices = devs
		inspect := sw.Inspect
		sw.Inspect = func(dev blockdev.Device, c expgrid.Cell) any {
			r := &recs[c.Index]
			r.inspect = since(t0)
			r.checkErr = countDevice(&r.cnt, dev, fills[c.Index])
			var info any
			if inspect != nil {
				info = inspect(dev, c)
			}
			r.done = since(t0)
			return info
		}
	}
	return sw
}

// precondFill is the fill fraction expgrid preconditions a closed-loop
// cell's device to, following expgrid.Sweep.Precondition.
func precondFill(sw expgrid.Sweep, c expgrid.Cell) float64 {
	switch sw.Precondition {
	case expgrid.PrecondNone:
		return 0
	case expgrid.PrecondWrites:
		return 0.5
	case expgrid.PrecondFull:
		return 1
	}
	if sw.Kind != expgrid.TraceReplay && c.Pattern.IsWrite() {
		return 0.5
	}
	return 1
}

// backendVolumes returns every volume attached to the first volume's
// backend, so cells whose tenants share one backend are counted once.
func backendVolumes(vols []*essd.ESSD) []*essd.ESSD {
	if len(vols) == 0 {
		return nil
	}
	return vols[0].Backend().Volumes()
}

// countKV reads one KV engine's statistics.
func countKV(c *counts, e kv.Engine) {
	s := e.Stats()
	c.kvPuts += s.Puts
	c.kvGets += s.Gets
	c.kvDevReads += s.DeviceReads
	c.kvDevWrites += s.DeviceWrites
	c.kvDevReadB += s.DeviceReadBytes
	c.kvDevWriteB += s.DeviceWriteBytes
	c.kvHits += s.CacheHits
	c.kvMisses += s.CacheMisses
	if e.Name() == "lsm" {
		c.kvLSMPuts += s.Puts
		c.kvLSMGets += s.Gets
	} else {
		c.kvPagePuts += s.Puts
		c.kvPageGets += s.Gets
	}
}

// pass is one full pass over a workload's sweeps.
type pass struct {
	wall                 time.Duration
	sweepWall            []time.Duration // per sweep
	sweepStart, sweepEnd []time.Duration // per sweep, offsets from the pass start
	workers              int
	cells                []cellRec
	results              [][]expgrid.CellResult // per sweep, enumeration order
	ops                  uint64                 // user-level simulated operations
	attempted            int
	digests              []string // per-cell output digests, sweep-major
	checkErrs            []string
	err                  error
}

// runPass runs every sweep of the instance once, in order, on a pool of
// the given size, with the benchmark's hooks installed.
func runPass(ctx context.Context, inst *instance, workers int) *pass {
	p := &pass{workers: workers}
	t0 := time.Now()
	for i, def := range inst.sweeps {
		recs := make([]cellRec, def.cells)
		sw := instrument(def.sw, i, recs, t0)
		s0 := time.Now()
		p.sweepStart = append(p.sweepStart, since(t0))
		res, err := expgrid.Runner{Workers: workers}.Run(ctx, sw)
		p.sweepWall = append(p.sweepWall, time.Since(s0))
		p.sweepEnd = append(p.sweepEnd, since(t0))
		p.attempted += def.cells
		if err != nil {
			p.err = fmt.Errorf("sweep %s: %w", def.name, err)
			p.results = append(p.results, nil)
			continue
		}
		p.results = append(p.results, res)
		p.cells = append(p.cells, recs...)
	}
	p.wall = time.Since(t0)
	for i, res := range p.results {
		for _, r := range res {
			p.ops += cellOps(r)
			p.digests = append(p.digests, digest(render(r)))
			if e := completionRule(r, inst.sweeps[i]); e != "" {
				p.checkErrs = append(p.checkErrs, fmt.Sprintf("%s cell %d: %s", inst.sweeps[i].name, r.Index, e))
			}
		}
	}
	for i := range p.cells {
		c := &p.cells[i]
		if c.checkErr != "" {
			p.checkErrs = append(p.checkErrs, fmt.Sprintf("%s: %s", inst.sweeps[c.sweep].name, c.checkErr))
		}
	}
	p.checkErrs = append(p.checkErrs, issuedRule(p, inst)...)
	return p
}

// cellOps counts a cell's user-level simulated operations: the requests a
// block generator issued (every closed-loop completion, warm-up included,
// lands in the throughput series), or KV Gets plus Puts.
func cellOps(r expgrid.CellResult) uint64 {
	var n uint64
	switch {
	case r.Res != nil:
		n = uint64(r.Res.Series.Total() / r.Res.Spec.BlockSize)
	case r.Mix != nil:
		for _, t := range r.Mix {
			n += t.Open.Ops
		}
	case r.KV != nil:
		for _, t := range r.KV {
			n += t.Puts + t.Gets
		}
	}
	return n
}

// completionRule checks that every tenant completed the ops it issued:
// open-loop tenants their whole request count, KV tenants their Puts plus
// Gets, which must equal the ops the sweep asked each tenant for.
func completionRule(r expgrid.CellResult, def sweepDef) string {
	for _, t := range r.Mix {
		if t.Open.Ops != t.Open.Spec.Count {
			return fmt.Sprintf("tenant %s completed %d of %d requests", t.Name, t.Open.Ops, t.Open.Spec.Count)
		}
	}
	for _, t := range r.KV {
		if t.Puts+t.Gets != t.Ops || t.Ops != def.kvOps {
			return fmt.Sprintf("kv tenant %s: puts %d + gets %d, completed %d, issued %d", t.Name, t.Puts, t.Gets, t.Ops, def.kvOps)
		}
	}
	return ""
}

// issuedRule checks that each closed-loop cell's device saw exactly the
// requests its generator completed.
func issuedRule(p *pass, inst *instance) []string {
	var errs []string
	k := 0
	for i, res := range p.results {
		for _, r := range res {
			c := p.cells[k]
			k++
			if r.Res == nil {
				continue
			}
			if done := cellOps(r); c.cnt.issued != done {
				errs = append(errs, fmt.Sprintf("%s cell %d: device saw %d requests, generator completed %d",
					inst.sweeps[i].name, r.Index, c.cnt.issued, done))
			}
		}
	}
	return errs
}

// render is a cell's canonical output: every simulated statistic the
// suites fold into their reports, in a fixed textual form.
func render(r expgrid.CellResult) []byte {
	b := fmt.Appendf(nil, "%d %s|", r.Index, r.Device)
	if x := r.Res; x != nil {
		b = fmt.Appendf(b, "closed %v %v %v ops=%d bytes=%d el=%d series=%d",
			x.Lat.Summarize(), x.ReadLat.Summarize(), x.WriteLat.Summarize(), x.Ops, x.Bytes, x.Elapsed, x.Series.Total())
		for _, v := range x.Series.Rates() {
			b = fmt.Appendf(b, ",%x", math.Float64bits(v))
		}
	}
	for _, t := range r.Mix {
		o := t.Open
		b = fmt.Appendf(b, "|%s %v ops=%d bytes=%d el=%d out=%d", t.Name, o.Lat.Summarize(), o.Ops, o.Bytes, o.Elapsed, o.MaxOutstanding)
	}
	for _, t := range r.KV {
		b = fmt.Appendf(b, "|%s %s %v ops=%d p=%d g=%d ub=%d el=%d out=%d %+v",
			t.Name, t.Engine, t.Lat.Summarize(), t.Ops, t.Puts, t.Gets, t.UserBytes, t.Elapsed, t.MaxOutstanding, t.Stats)
	}
	return fmt.Appendf(b, "|info %+v", r.Info)
}

// digest is a short hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// mismatches counts the cells whose digest differs from the reference;
// a missing cell counts as a mismatch.
func mismatches(ref, got []string) int {
	n := 0
	for i := range max(len(ref), len(got)) {
		if i >= len(ref) || i >= len(got) || ref[i] != got[i] {
			n++
		}
	}
	return n
}
