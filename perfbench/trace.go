package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"essdsim/internal/blockdev"
	"essdsim/internal/expgrid"
	"essdsim/internal/profiles"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
	"essdsim/internal/workload"
	"essdsim/kv"
)

// spanDir is where the traced run writes its spans, relative to the
// checkout root the benchmark runs from (ignored by git).
const spanDir = ".bench_build/spans"

// span is one recorded interval of the traced run: a cell phase (build,
// run, inspect) under its cell span, or a ladder rung.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Pass    int     `json:"pass"`
	Sweep   string  `json:"sweep,omitempty"`
	Cell    int     `json:"cell"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// hostSample is the process's allocation and CPU accounting at one
// instant.
type hostSample struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

func readHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	h := hostSample{allocBytes: ms.TotalAlloc, allocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU, h.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return h
}

// traced is the --trace 1 run: untraced passes for the baseline pass_s,
// traced passes whose hooks also keep spans and host accounting, the
// exact counts, the layer ladder and its shares.
func (b *bench) traced(ctx context.Context) (*report, error) {
	if _, _, err := b.setup(ctx, 1, 0); err != nil {
		return nil, err
	}
	r := b.newReport()
	third := b.budget / 3
	base := b.timedPasses(ctx, third, 2)

	var traced []*pass
	var allocB, allocN, gcFrac []float64
	var spans []span
	start := time.Now()
	for len(traced) < 2 || time.Since(start) < third {
		h0 := readHost()
		p := b.runPass(ctx, b.workers)
		h1 := readHost()
		dropResults(traced)
		traced = append(traced, p)
		spans = append(spans, cellSpans(b.inst, p, len(traced))...)
		if p.ops > 0 {
			allocB = append(allocB, float64(h1.allocBytes-h0.allocBytes)/float64(p.ops))
			allocN = append(allocN, float64(h1.allocs-h0.allocs)/float64(p.ops))
		}
		if cpu := h1.totalCPU - h0.totalCPU; cpu > 0 {
			gcFrac = append(gcFrac, (h1.gcCPU-h0.gcCPU)/cpu)
		}
		if len(traced) > 100 {
			break
		}
	}
	last := traced[len(traced)-1]
	b.verify(ctx, last, r)
	exact := b.exactCounts(traced, r)

	r.add("trace_overhead", "ratio", fastestPassS(traced)/fastestPassS(base)-1)
	hookMetrics(r, traced)
	r.add("host.alloc_bytes_per_op", "B/op", median(allocB))
	r.add("host.allocs_per_op", "1/op", median(allocN))
	r.add("host.gc_cpu_frac", "ratio", median(gcFrac))
	for name, v := range exact {
		r.add(name, exactUnits[name], v)
	}

	m := b.recordMix(ctx, last, traced)
	ladderStart := time.Now()
	rungs := b.runLadder(m, &spans, ladderStart)
	ladderMetrics(r, b.w.name, m, rungs)
	r.lines = append(r.lines,
		fmt.Sprintf("%d baseline and %d traced passes; ladder %.1fs; host ns/op %.0f over %d cells per pass",
			len(base), len(traced), time.Since(ladderStart).Seconds(), m.hostNsPerOp, m.cells),
		fmt.Sprintf("recorded mix: read share %.2f, sizes %d/%d B (r/w), sub-op %d B, depth %d, flows %d, engine pending %.1f",
			m.readFrac, m.readSize, m.writeSize, m.subSize, m.depth, m.flows, m.pending))
	if err := writeSpans(b.w.name, b.seed, spans); err != nil {
		r.lines = append(r.lines, "spans not written: "+err.Error())
	} else {
		r.lines = append(r.lines, fmt.Sprintf("%d spans written to %s", len(spans), spanPath(b.w.name, b.seed)))
	}
	return b.finish(r), nil
}

// cellSpans turns a pass's cell records into spans.
func cellSpans(inst *instance, p *pass, n int) []span {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	var out []span
	idx := map[int]int{}
	for _, c := range p.cells {
		sw := inst.sweeps[c.sweep].name
		i := idx[c.sweep]
		idx[c.sweep]++
		cell := fmt.Sprintf("%s/%d", sw, i)
		out = append(out,
			span{Name: "cell " + cell, Pass: n, Sweep: sw, Cell: i, StartUs: us(c.start), EndUs: us(c.done)},
			span{Name: "build", Parent: "cell " + cell, Pass: n, Sweep: sw, Cell: i, StartUs: us(c.start), EndUs: us(c.built)},
			span{Name: "run", Parent: "cell " + cell, Pass: n, Sweep: sw, Cell: i, StartUs: us(c.built), EndUs: us(c.inspect)},
			span{Name: "inspect", Parent: "cell " + cell, Pass: n, Sweep: sw, Cell: i, StartUs: us(c.inspect), EndUs: us(c.done)})
	}
	return out
}

func spanPath(name string, seed uint64) string {
	return filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", name, seed))
}

// writeSpans writes the run's spans once, at the end.
func writeSpans(name string, seed uint64, spans []span) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(spanPath(name, seed), data, 0o644)
}

// hookMetrics reports the cell-phase metrics of the traced passes: build
// and run milliseconds per cell, makespan efficiency and straggler tail.
func hookMetrics(r *report, passes []*pass) {
	var build, run, eff, strag []float64
	for _, p := range passes {
		var b, ru, sum float64
		for _, c := range p.cells {
			b += (c.built - c.start).Seconds() * 1e3
			ru += (c.inspect - c.built).Seconds() * 1e3
			sum += c.total().Seconds()
		}
		n := float64(max(len(p.cells), 1))
		build = append(build, b/n)
		run = append(run, ru/n)
		eff = append(eff, sum/(float64(p.workers)*p.wall.Seconds()))
		strag = append(strag, straggler(p).Seconds()*1e3)
	}
	r.add("expgrid.build_ms", "ms", median(build))
	r.add("expgrid.run_ms", "ms", median(run))
	r.add("expgrid.makespan_eff", "ratio", median(eff))
	r.add("expgrid.straggler_ms", "ms", median(strag))
}

// straggler sums, over a pass's sweeps, the time from the first worker
// going idle for good — the first cell end after the last cell started,
// or the sweep start when there were fewer cells than workers — to the
// sweep's end.
func straggler(p *pass) time.Duration {
	var total time.Duration
	bySweep := map[int][]cellRec{}
	for _, c := range p.cells {
		bySweep[c.sweep] = append(bySweep[c.sweep], c)
	}
	for s, cells := range bySweep {
		if s >= len(p.sweepEnd) {
			continue
		}
		end := p.sweepEnd[s]
		idle := end
		if len(cells) < p.workers {
			idle = p.sweepStart[s]
		} else {
			var lastStart time.Duration
			for _, c := range cells {
				lastStart = max(lastStart, c.start)
			}
			for _, c := range cells {
				if c.done >= lastStart && c.done < idle {
					idle = c.done
				}
			}
		}
		total += end - idle
	}
	return total
}

// exactUnits marks the exact metrics: deterministic simulator counts that
// repeat bit-for-bit for a seed, on any worker count.
var exactUnits = map[string]string{
	"sim.events_per_op":     "events/op.exact",
	"essd.subops_per_op":    "subops/op.exact",
	"cluster.ops_per_op":    "ops/op.exact",
	"netsim.bytes_per_op":   "B/op.exact",
	"ftl.write_amp":         "ratio.exact",
	"flash.programs_per_op": "progs/op.exact",
	"kv.device_ios_per_op":  "ios/op.exact",
	"kv.cache_hit_ratio":    "ratio.exact",
}

// exactCounts computes the exact metrics from each traced pass and
// requires every pass to give the identical values.
func (b *bench) exactCounts(passes []*pass, r *report) map[string]float64 {
	var first map[string]float64
	for _, p := range passes {
		var c counts
		for _, cell := range p.cells {
			c.add(cell.cnt)
		}
		ops := float64(max(p.ops, 1))
		e := map[string]float64{
			"sim.events_per_op":     float64(c.steps) / ops,
			"essd.subops_per_op":    ratio(float64(c.subReads+c.subWrites), float64(c.reads+c.writes)),
			"cluster.ops_per_op":    float64(c.clWrites+c.clReads+c.clReplWrite) / ops,
			"netsim.bytes_per_op":   float64(c.netBytes) / ops,
			"ftl.write_amp":         ratio(float64(c.ftlHostSlots+c.ftlGCSlots), float64(c.ftlHostSlots)),
			"flash.programs_per_op": float64(c.flashPrograms) / ops,
			"kv.device_ios_per_op":  ratio(float64(c.kvDevReads+c.kvDevWrites), float64(c.kvPuts+c.kvGets)),
			"kv.cache_hit_ratio":    ratio(float64(c.kvHits), float64(c.kvHits+c.kvMisses)),
		}
		if first == nil {
			first = e
			continue
		}
		for k, v := range e {
			if v != first[k] {
				b.fail(p.attempted, "exact metric %s changed between traced passes: %v vs %v", k, first[k], v)
			}
		}
	}
	for _, p := range passes[len(passes)-1:] {
		hits := map[float64][2]uint64{}
		for i, res := range p.results {
			for j, cr := range res {
				if cr.KV == nil {
					continue
				}
				c := p.cells[cellOffset(p, i)+j].cnt
				h := hits[cr.KVSkew]
				hits[cr.KVSkew] = [2]uint64{h[0] + c.kvHits, h[1] + c.kvHits + c.kvMisses}
			}
		}
		h := hits[0]
		r.add("kv.cache_hit_ratio.uniform", "ratio.exact", ratio(float64(h[0]), float64(h[1])))
		h = hits[0.99]
		r.add("kv.cache_hit_ratio.skew99", "ratio.exact", ratio(float64(h[0]), float64(h[1])))
	}
	return first
}

// cellOffset is the index in p.cells of sweep i's first cell.
func cellOffset(p *pass, i int) int {
	n := 0
	for s := 0; s < i; s++ {
		n += len(p.results[s])
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// recordMix derives the ladder's request mix from a traced pass: layer
// totals, request sizes and shares, depth and flow counts, and the mean
// pending-event depth of the workload's largest cell.
func (b *bench) recordMix(ctx context.Context, p *pass, passes []*pass) mix {
	m := mix{cells: len(p.cells)}
	for _, c := range p.cells {
		m.c.add(c.cnt)
	}
	m.ops = float64(p.ops)
	var hostNs []float64
	for _, q := range passes {
		var sum float64
		for _, c := range q.cells {
			sum += float64(c.total().Nanoseconds())
		}
		hostNs = append(hostNs, sum/float64(max(q.ops, 1)))
	}
	m.hostNsPerOp = median(hostNs)
	c := m.c
	m.readFrac = ratio(float64(c.reads), float64(c.reads+c.writes))
	m.readSize = roundBlock(ratio(float64(c.readBytes), float64(c.reads)))
	m.writeSize = roundBlock(ratio(float64(c.writeBytes), float64(c.writes)))
	m.subSize = roundBlock(ratio(float64(c.readBytes+c.writeBytes), float64(c.subReads+c.subWrites)))
	m.ssdWriteSize = roundBlock(ratio(float64(c.ssdWriteByte), float64(c.ssdWrites)))
	m.ssdHalfFrac = ratio(float64(c.ssdHalfFills), float64(c.ssdHalfFills+c.ssdFullFills))
	if c.kvPuts+c.kvGets > 0 {
		m.readFrac = ratio(float64(c.kvDevReads), float64(c.kvDevReads+c.kvDevWrites))
		m.readSize = roundBlock(ratio(float64(c.kvDevReadB), float64(c.kvDevReads)))
		m.writeSize = roundBlock(ratio(float64(c.kvDevWriteB), float64(c.kvDevWrites)))
	}
	// Depth: closed-loop cells keep their queue depth in flight; open-loop
	// and KV tenants hold, by Little's law, ops × mean latency ÷ elapsed.
	inFlight := func(ops uint64, lat stats.Summary, el sim.Duration) float64 {
		return ratio(float64(ops)*float64(lat.Mean), float64(el))
	}
	var depthW, opsW, flowW, kvOut, kvN float64
	for i, res := range p.results {
		for j, r := range res {
			ops := float64(cellOps(r))
			cnt := p.cells[cellOffset(p, i)+j].cnt
			var d float64
			switch {
			case r.Res != nil:
				d = float64(r.QueueDepth)
			case r.Mix != nil:
				for _, t := range r.Mix {
					d += inFlight(t.Open.Ops, t.Open.Lat.Summarize(), t.Open.Elapsed)
				}
			case r.KV != nil:
				for _, t := range r.KV {
					x := inFlight(t.Ops, t.Lat.Summarize(), t.Elapsed)
					d += x
					kvOut += x
					kvN++
				}
			}
			depthW += d * ops
			flowW += float64(max(cnt.vols, 1)) * ops
			opsW += ops
		}
	}
	m.depth = max(1, int(ratio(depthW, opsW)+0.5))
	m.flows = max(1, int(ratio(flowW, opsW)+0.5))
	m.kvDepth = max(1, int(ratio(kvOut, kvN)+0.5))
	m.zipfPerPass = c.zipfBuilds
	m.pending = b.samplePending(ctx, p)
	return m
}

func roundBlock(x float64) int64 {
	if x <= 0 {
		return 4096
	}
	return (int64(x) + 4095) / 4096 * 4096
}

// samplePending reruns the pass's largest cell with a daemon event that
// samples the engine's pending-event count every 20 µs of simulated time.
// Daemon events never extend a run, so the cell simulates exactly as in
// the timed passes; a running daemon is no longer pending, so it does not
// count itself.
func (b *bench) samplePending(ctx context.Context, p *pass) float64 {
	best, bi, bj := uint64(0), -1, -1
	for i, res := range p.results {
		for j, r := range res {
			if n := cellOps(r); n > best {
				best, bi, bj = n, i, j
			}
		}
	}
	if bi < 0 {
		return 0
	}
	var sum, n float64
	sampler := func(eng *sim.Engine) {
		var tick func()
		tick = func() {
			sum += float64(eng.Pending())
			n++
			eng.ScheduleDaemon(20*sim.Microsecond, tick)
		}
		eng.ScheduleDaemon(0, tick)
	}
	sw := b.inst.sweeps[bi].sw
	cell := p.results[bi][bj].Cell
	switch sw.Kind {
	case expgrid.TenantMix:
		// The fleet hook finds its cell by device index, so the whole
		// (small) sweep reruns and only the chosen cell is sampled.
		build := sw.Tenants
		sw.Tenants = func(c expgrid.Cell) (*sim.Engine, []workload.Tenant) {
			eng, ts := build(c)
			if c.Index == cell.Index {
				sampler(eng)
			}
			return eng, ts
		}
	case expgrid.KVMix:
		build := sw.KV
		sw.KV = func(c expgrid.Cell) (*sim.Engine, []kv.MixTenant) {
			eng, ts := build(c)
			sampler(eng)
			return eng, ts
		}
		sw.KVEngines, sw.KVSkews, sw.KVValueSizes = []string{cell.KVEngine}, []float64{cell.KVSkew}, []int64{cell.ValueSize}
	default:
		devs := append([]expgrid.NamedFactory(nil), sw.Devices...)
		f := devs[0].New
		devs[0].New = func(seed uint64) blockdev.Device {
			d := f(seed)
			sampler(d.Engine())
			return d
		}
		sw.Devices = devs
		sw.Patterns, sw.BlockSizes, sw.QueueDepths = []workload.Pattern{cell.Pattern}, []int64{cell.BlockSize}, []int{cell.QueueDepth}
		sw.WriteRatiosPct = nil
		if cell.WriteRatioPct >= 0 {
			sw.WriteRatiosPct = []int{cell.WriteRatioPct}
		}
	}
	if _, err := (expgrid.Runner{Workers: 1}).Run(ctx, sw); err != nil {
		return 0
	}
	return ratio(sum, n)
}

// runLadder drives every layer the workload uses alone with its mix and
// returns the rungs by metric name, recording a span per rung.
func (b *bench) runLadder(m mix, spans *[]span, t0 time.Time) map[string]rung {
	rungs := map[string]rung{}
	do := func(name string, f func() rung) {
		s := time.Since(t0)
		rungs[name] = f()
		*spans = append(*spans, span{Name: "ladder " + name, StartUs: float64(s.Nanoseconds()) / 1e3,
			EndUs: float64(time.Since(t0).Nanoseconds()) / 1e3, Cell: -1})
	}
	l := b.inst.ladder
	bcfg, vcfg := l.backend, l.volume
	if bcfg.Cluster.Nodes == 0 {
		bcfg, vcfg = l.profile.Split()
	}
	bcfg.Isolation = l.iso
	do("sim.engine", func() rung { return ladderEngine(int(m.pending + 0.5)) })
	do("sim.dist", func() rung {
		ds := []sim.Dist{vcfg.FrontendLatency, bcfg.Net.HopLatency}
		if l.ssd {
			ds = append(ds, ssdFlash().ProgramDist)
		}
		return ladderDist(ds)
	})
	if m.c.reads+m.c.writes > 0 {
		do("sim.server_fifo", func() rung { return ladderServer(m, vcfg.FrontendSlots, vcfg.FrontendLatency, nil, 0) })
		if b.w.name == "isolation" {
			wfq, resv := qos.Isolation{Policy: qos.IsolationWFQ}, qos.Isolation{Policy: qos.IsolationReservation}
			do("sim.server_drr", func() rung {
				return ladderServer(m, bcfg.Cluster.WriteSlots, bcfg.Cluster.WriteService,
					func(e *sim.Engine) sim.FlowQueue { return wfq.NewQueue(e, wfq.QuantumOrDefault()) }, 0)
			})
			do("sim.server_resv", func() rung {
				return ladderServer(m, bcfg.Cluster.WriteSlots, bcfg.Cluster.WriteService,
					func(e *sim.Engine) sim.FlowQueue { return resv.NewQueue(e, resv.QuantumOrDefault()) }, 0.5e9)
			})
		}
		do("sim.pipe", func() rung { return ladderPipe(m, bcfg.Net.UplinkBW, l.iso) })
		do("qos.bucket", func() rung { return ladderBucket(m, vcfg.ThroughputBudget, vcfg.BudgetBurst) })
		do("essd", func() rung { return ladderESSD(m, bcfg, vcfg) })
		do("cluster.write", func() rung { return ladderCluster(m, bcfg.Cluster, l.iso, true) })
		do("cluster.read", func() rung { return ladderCluster(m, bcfg.Cluster, l.iso, false) })
		do("netsim", func() rung { return ladderNetsim(m, bcfg.Net, l.iso) })
	}
	if l.ssd {
		do("ssd.build", ladderSSDBuild)
		do("ftl.precondition.half", func() rung { return ladderPrecondition(true) })
		do("ftl.precondition.full", func() rung { return ladderPrecondition(false) })
		do("ftl.nogc", func() rung { return ladderFTL(m, false) })
		do("ftl.gc", func() rung { return ladderFTL(m, true) })
		rungs["ftl"] = ftlMix(m, rungs["ftl.nogc"], rungs["ftl.gc"])
		do("flash", func() rung { return ladderFlash(ssdFlash()) })
	}
	if l.kv != nil {
		s := scenarioKV{keySpace: l.kv.KeySpace, skews: l.kv.Skews, valueSize: l.kv.ValueSizes[0], memtable: l.kv.MemtableBytes}
		do("workload.zipf", func() rung { return ladderZipf(s) })
		cfg, _ := profiles.ConfigByName(l.kv.Tiers[0]) // validated when the workload was built
		for _, e := range l.kv.Engines {
			var put, get rung
			do("kv."+e, func() rung { put, get = ladderKV(m, e, s, cfg); return put })
			rungs["kv."+e+".put"], rungs["kv."+e+".get"] = put, get
			delete(rungs, "kv."+e)
		}
	}
	return rungs
}

// ftlMix places the workload's SSD writes between the GC-free and the
// GC-running FTL rungs by its own GC slots per host write: a linear blend
// of the two regimes' cost, engine steps and flash programs per write.
func ftlMix(m mix, free, gc rung) rung {
	w := ratio(ratio(float64(m.c.ftlGCSlots), float64(m.c.ssdWrites)), gc.sub["ftl.gc_slots"])
	w = min(max(w, 0), 1)
	blend := func(a, b float64) float64 { return a + w*(b-a) }
	return rung{ns: blend(free.ns, gc.ns), steps: blend(free.steps, gc.steps), sub: map[string]float64{
		"flash.program": blend(free.sub["flash.program"], gc.sub["flash.program"]),
	}}
}

// ladderMetrics reports every rung as its per-layer metric, and each
// layer's share of the workload's host time per simulated operation.
//
// A layer's share is its self cost per call × calls per op ÷ host ns per
// op, where host ns per op is Σ cell host time ÷ ops (single-worker time,
// comparable with rungs driven on one goroutine). Self cost subtracts from
// a rung's inclusive time the engine events it caused (at the engine
// rung's ns/event) and, for the essd volume and the KV engines, the
// sub-layer calls they made (cluster, fabric, frontend server, budget
// buckets, latency samples; device I/Os for KV). Calls per op come from
// the traced passes' counters. ladder.gap is 1 − Σ shares: the generators,
// statistics, the SSD read path and whatever else no rung measures.
func ladderMetrics(r *report, wname string, m mix, rungs map[string]rung) {
	ns := func(name string) float64 { return rungs[name].ns }
	ev := ns("sim.engine")
	self := func(name string) float64 {
		g := rungs[name]
		return max(0, g.ns-g.steps*ev)
	}
	r.add("sim.engine.ns_per_event", "ns", ev)
	r.add("sim.server_fifo.ns_per_visit", "ns", ns("sim.server_fifo"))
	r.add("sim.server_drr.ns_per_visit", "ns", ns("sim.server_drr"))
	r.add("sim.server_resv.ns_per_visit", "ns", ns("sim.server_resv"))
	r.add("sim.pipe.ns_per_transfer", "ns", ns("sim.pipe"))
	r.add("sim.dist.ns_per_sample", "ns", ns("sim.dist"))
	r.add("qos.bucket.ns_per_take", "ns", ns("qos.bucket"))
	r.add("essd.ns_per_io", "ns", ns("essd"))
	r.add("cluster.ns_per_write", "ns", ns("cluster.write"))
	r.add("cluster.ns_per_read", "ns", ns("cluster.read"))
	r.add("netsim.ns_per_send", "ns", ns("netsim"))
	r.add("ssd.build_ms", "ms", ns("ssd.build")/1e6)
	pre := m.ssdHalfFrac*ns("ftl.precondition.half") + (1-m.ssdHalfFrac)*ns("ftl.precondition.full")
	r.add("ftl.precondition_ms", "ms", pre/1e6)
	r.add("ftl.ns_per_host_write", "ns", ns("ftl"))
	r.add("flash.ns_per_program", "ns", ns("flash"))
	r.add("workload.zipf_build_ms", "ms", ns("workload.zipf")/1e6)
	for _, e := range []string{"lsm", "pagestore"} {
		r.add("kv."+e+".ns_per_put", "ns", ns("kv."+e+".put"))
		r.add("kv."+e+".ns_per_get", "ns", ns("kv."+e+".get"))
	}

	c, ops := m.c, max(m.ops, 1)
	perOp := func(x float64) float64 { return x / ops }
	shares := map[string]float64{}
	shares["sim.engine"] = perOp(float64(c.steps)) * ev
	if g, ok := rungs["essd"]; ok {
		ios := float64(c.reads + c.writes)
		subs := g.sub["netsim.send"]
		dist := ns("sim.dist")
		essdSelf := g.ns - g.steps*ev -
			g.sub["cluster.write"]*self("cluster.write") - g.sub["cluster.read"]*self("cluster.read") -
			subs*self("netsim") - self("sim.server_fifo") - 2*self("qos.bucket") - (1+subs)*dist
		shares["essd"] = perOp(ios) * max(0, essdSelf)
		shares["sim.server"] = perOp(ios) * self("sim.server_fifo")
		shares["qos.bucket"] = perOp(2*ios) * self("qos.bucket")
		shares["sim.dist"] = perOp(ios+float64(c.subReads+c.subWrites)) * dist
		shares["cluster"] = perOp(float64(c.clWrites))*self("cluster.write") + perOp(float64(c.clReads))*self("cluster.read")
		shares["netsim"] = perOp(float64(c.subReads+c.subWrites)) * self("netsim")
		if c.kvPuts+c.kvGets > 0 {
			io := g.ns
			kvSelf := func(name string) float64 {
				k := rungs[name]
				return max(0, k.ns-k.sub["essd.io"]*io-(k.steps-k.sub["essd.io"]*g.steps)*ev)
			}
			shares["kv.lsm"] = perOp(float64(c.kvLSMPuts))*kvSelf("kv.lsm.put") + perOp(float64(c.kvLSMGets))*kvSelf("kv.lsm.get")
			shares["kv.pagestore"] = perOp(float64(c.kvPagePuts))*kvSelf("kv.pagestore.put") + perOp(float64(c.kvPageGets))*kvSelf("kv.pagestore.get")
			shares["workload.zipf"] = perOp(float64(m.zipfPerPass)) * ns("workload.zipf")
		}
	}
	if c.ssdCells > 0 {
		shares["ssd.build"] = perOp(float64(c.ssdCells)) * ns("ssd.build")
		shares["ftl.precondition"] = perOp(float64(c.ssdHalfFills))*ns("ftl.precondition.half") +
			perOp(float64(c.ssdFullFills))*ns("ftl.precondition.full")
		f := rungs["ftl"]
		shares["ftl"] = perOp(float64(c.ssdWrites)) * max(0, f.ns-f.steps*ev-f.sub["flash.program"]*self("flash"))
		shares["flash"] = perOp(float64(c.flashPrograms)) * self("flash")
	}
	var sum float64
	for _, layer := range shareLayers {
		s := shares[layer] / m.hostNsPerOp
		if m.hostNsPerOp <= 0 {
			s = 0
		}
		sum += s
		r.add("ladder."+layer+".share", "ratio", s)
	}
	r.add("ladder.gap", "ratio", 1-sum)
	r.lines = append(r.lines, "ladder shares of host ns/op on "+wname+" (largest first):")
	for _, l := range rank(shares) {
		r.lines = append(r.lines, fmt.Sprintf("  %-18s %6.3f", l, shares[l]/m.hostNsPerOp))
	}
}

// shareLayers are the layers a share is reported for, in report order.
var shareLayers = []string{
	"sim.engine", "sim.server", "sim.dist", "qos.bucket", "essd", "cluster", "netsim",
	"ssd.build", "ftl.precondition", "ftl", "flash", "workload.zipf", "kv.lsm", "kv.pagestore",
}

// rank orders layers by share, largest first.
func rank(shares map[string]float64) []string {
	out := make([]string, 0, len(shares))
	for k := range shares {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if shares[out[i]] != shares[out[j]] {
			return shares[out[i]] > shares[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
