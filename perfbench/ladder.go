package main

import (
	"fmt"
	"math"
	"time"

	"essdsim/internal/blockdev"
	"essdsim/internal/cluster"
	"essdsim/internal/essd"
	"essdsim/internal/expgrid"
	"essdsim/internal/flash"
	"essdsim/internal/netsim"
	"essdsim/internal/profiles"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
	"essdsim/kv"
)

// The layer ladder drives each layer's public functions alone, fed with
// the request mix the workload induced in its traced passes, and times
// them from outside. Every rung reports inclusive host nanoseconds per
// call — its own work plus the engine events and sub-layer calls it
// causes — and the engine steps per call, so shares can subtract what the
// engine and the layers below already account for.

// mix is the request mix a workload induced, recorded from the traced
// passes' layer counters and results.
type mix struct {
	ops                 float64 // user-level operations per pass
	readFrac            float64 // essd reads / host requests
	readSize, writeSize int64   // mean essd request bytes, 4 KiB multiples
	subSize             int64   // mean bytes per cluster sub-operation
	depth               int     // mean in-flight requests per cell
	flows               int     // volumes per backend
	ssdWriteSize        int64   // mean local-SSD write bytes
	ssdHalfFrac         float64 // share of SSD cells preconditioned half full
	pending             float64 // mean engine pending events (sampled)
	kvDepth             int     // mean in-flight KV ops per tenant
	c                   counts  // totals over one traced pass
	cells, zipfPerPass  int     // cells per pass; Zipf tables built per pass
	hostNsPerOp         float64 // Σ cell host time / ops
}

// rung is one ladder measurement: inclusive host ns per call, engine steps
// per call, and sub-layer calls per call where the rung counts them.
type rung struct {
	ns, steps float64
	sub       map[string]float64
}

// ladderBudget is the host time one rung measures for; each rung runs
// three such repetitions and keeps the median.
const ladderBudget = 60 * time.Millisecond

// measure calibrates n so one repetition lasts about ladderBudget, runs
// three repetitions of f(n) and returns the median per-call rung. f's
// whole call is timed unless it times its own measured phase and reports
// it in rung.ns (excluding its set-up).
func measure(f func(n int) rung) rung {
	timed := func(n int) rung {
		t0 := time.Now()
		r := f(n)
		if r.ns == 0 {
			r.ns = float64(time.Since(t0).Nanoseconds())
		}
		return r
	}
	n := 256
	for {
		el := time.Duration(timed(n).ns)
		if el >= ladderBudget/4 || n >= 1<<22 {
			n = max(16, int(float64(n)*float64(ladderBudget)/float64(max(el, time.Microsecond))))
			break
		}
		n *= 4
	}
	var runs []rung
	for i := 0; i < 3; i++ {
		r := timed(n)
		r.ns /= float64(n)
		r.steps /= float64(n)
		for k, v := range r.sub {
			r.sub[k] = v / float64(n)
		}
		runs = append(runs, r)
	}
	return medianRung(runs)
}

// drive keeps depth operations in flight on eng until n have been issued,
// then drains. issue starts operation i and must arrange for done to run
// once when it completes (possibly synchronously).
func drive(eng *sim.Engine, n, depth int, issue func(i int, done func())) {
	depth = max(depth, 1)
	inflight := 0
	done := func() { inflight-- }
	for i := 0; i < n; {
		for inflight < depth && i < n {
			inflight++
			issue(i, done)
			i++
		}
		for inflight >= depth {
			if !eng.Step() {
				panic("ladder: operations in flight but no events pending")
			}
		}
	}
	eng.Run()
}

// pattern returns a reproducible table of uniform draws for a rung.
func pattern(n int, seed uint64) []uint64 {
	rng := sim.NewRNG(seed, seed^0x1add)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

const patternMask = 4095

// sameTimeShare is the share of engine events the engine rung schedules
// at the current timestamp. The engine's public API does not expose the
// workload's own share, so the rung uses a fixed mid value.
const sameTimeShare = 0.5

func ladderEngine(depth int) rung {
	depth = max(depth, 1)
	draws := pattern(patternMask+1, 1)
	return measure(func(n int) rung {
		eng := sim.NewEngine()
		left, k := n, 0
		var fn func()
		fn = func() {
			if left <= 0 {
				return
			}
			left--
			k++
			d := draws[k&patternMask]
			var delay sim.Duration
			if float64(d>>11)/(1<<53) >= sameTimeShare {
				delay = sim.Duration(1 + d%(100*uint64(sim.Microsecond)))
			}
			eng.Schedule(delay, fn)
		}
		for i := 0; i < depth; i++ {
			eng.Schedule(sim.Duration(1+draws[i&patternMask]%(100*uint64(sim.Microsecond))), fn)
		}
		eng.Run()
		return rung{steps: float64(eng.Steps())}
	})
}

func services(d sim.Dist) []sim.Duration {
	rng := sim.NewRNG(2, 3)
	out := make([]sim.Duration, patternMask+1)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

// ladderServer drives sim.Server.Visit (q nil) or VisitFlow behind the
// flow queue q, with the volume frontend's slot count and service times.
func ladderServer(m mix, slots int, svc sim.Dist, q func(*sim.Engine) sim.FlowQueue, reserved float64) rung {
	times := services(svc)
	return measure(func(n int) rung {
		eng := sim.NewEngine()
		s := sim.NewServer(eng, "ladder", slots)
		flows := max(m.flows, 1)
		if q != nil {
			s.SetQueue(q(eng))
			for f := 0; f < flows; f++ {
				r := 0.0
				if f == 0 {
					r = reserved
				}
				s.SetFlow(f, 1, r)
			}
		}
		drive(eng, n, max(m.depth, slots+1), func(i int, done func()) {
			if q != nil {
				s.VisitFlow(i%flows, times[i&patternMask], done)
			} else {
				s.Visit(times[i&patternMask], done)
			}
		})
		return rung{steps: float64(eng.Steps())}
	})
}

func ladderPipe(m mix, bw float64, iso qos.Isolation) rung {
	return measure(func(n int) rung {
		eng := sim.NewEngine()
		p := sim.NewPipe(eng, "ladder", bw)
		flows := max(m.flows, 1)
		if iso.Enabled() {
			p.SetQueue(iso.NewQueue(eng, iso.QuantumOrDefault()))
		}
		drive(eng, n, m.depth, func(i int, done func()) { p.TransferFlow(i%flows, m.subSize, done) })
		return rung{steps: float64(eng.Steps())}
	})
}

func ladderDist(dists []sim.Dist) rung {
	return measure(func(n int) rung {
		rng := sim.NewRNG(4, 5)
		var sink sim.Duration
		for i := 0; i < n; i++ {
			sink += dists[i%len(dists)].Sample(rng)
		}
		if sink < 0 {
			panic("negative samples")
		}
		return rung{}
	})
}

// ladderBucket drives qos.TokenBucket.Take at a volume's throughput
// budget with the workload's request sizes.
func ladderBucket(m mix, rate, burst float64) rung {
	return measure(func(n int) rung {
		eng := sim.NewEngine()
		b := qos.NewTokenBucket(eng, rate, burst)
		drive(eng, n, m.depth, func(i int, done func()) {
			size := m.writeSize
			if i%100 < int(m.readFrac*100) {
				size = m.readSize
			}
			b.Take(float64(size), done)
		})
		return rung{steps: float64(eng.Steps())}
	})
}

// ladderESSD drives submit→complete on m.flows volumes of one private
// backend with the workload's read share, sizes and depth.
func ladderESSD(m mix, bcfg essd.BackendConfig, vcfg essd.VolumeConfig) rung {
	draws := pattern(patternMask+1, 6)
	return measure(func(n int) rung {
		eng := sim.NewEngine()
		be := essd.NewBackend(eng, bcfg, sim.NewRNG(7, 8))
		flows := max(m.flows, 1)
		vols := make([]*essd.ESSD, flows)
		for f := range vols {
			vc := vcfg
			vc.Name = fmt.Sprintf("vol%d", f)
			vols[f] = be.Attach(vc, sim.NewRNG(9, uint64(f)))
			vols[f].Precondition(1)
		}
		var cur func()
		onDone := func(*blockdev.Request, sim.Time) { cur() }
		t0 := time.Now()
		drive(eng, n, m.depth, func(i int, done func()) {
			cur = done
			d := draws[i&patternMask]
			op, size := blockdev.Write, m.writeSize
			if float64(d%1000) < m.readFrac*1000 {
				op, size = blockdev.Read, m.readSize
			}
			v := vols[i%flows]
			slots := v.Capacity() / size
			v.Submit(&blockdev.Request{Op: op, Offset: int64(d>>10) % slots * size, Size: size, OnComplete: onDone})
		})
		el := time.Since(t0)
		var c counts
		countVolumes(&c, vols)
		be.ReleaseResources()
		return rung{ns: float64(el.Nanoseconds()), steps: float64(eng.Steps()), sub: map[string]float64{
			"cluster.write": float64(c.clWrites), "cluster.read": float64(c.clReads),
			"netsim.send": float64(c.subReads + c.subWrites),
		}}
	})
}

// ladderCluster drives Cluster.WriteFor (replication included) or
// ReadFor with the workload's sub-operation size, depth and flow count.
func ladderCluster(m mix, cfg cluster.Config, iso qos.Isolation, write bool) rung {
	draws := pattern(patternMask+1, 10)
	return measure(func(n int) rung {
		eng := sim.NewEngine()
		cl := cluster.New(eng, cfg, sim.NewRNG(11, 12))
		cl.SetIsolation(iso)
		flows := max(m.flows, 1)
		for f := 0; f < flows; f++ {
			cl.SetFlowQoS(cl.RegisterFlow(fmt.Sprintf("vol%d", f)), 1, 0)
		}
		chunks := int64(1 << 14)
		drive(eng, n, m.depth, func(i int, done func()) {
			chunk := int64(draws[i&patternMask] % uint64(chunks))
			if write {
				cl.WriteFor(i%flows, chunk, m.subSize, done)
			} else {
				cl.ReadFor(i%flows, chunk, m.subSize, done)
			}
		})
		return rung{steps: float64(eng.Steps())}
	})
}

// ladderNetsim drives Flow.SendUp/SendDown in the workload's write/read
// proportion with its sub-operation size.
func ladderNetsim(m mix, cfg netsim.Config, iso qos.Isolation) rung {
	return measure(func(n int) rung {
		eng := sim.NewEngine()
		net := netsim.New(eng, cfg, sim.NewRNG(13, 14))
		net.SetIsolation(iso)
		flows := make([]*netsim.Flow, max(m.flows, 1))
		for f := range flows {
			flows[f] = net.NewFlow(fmt.Sprintf("vol%d", f))
		}
		drive(eng, n, m.depth, func(i int, done func()) {
			f := flows[i%len(flows)]
			if i%100 < int(m.readFrac*100) {
				f.SendDown(m.subSize, done)
			} else {
				f.SendUp(m.subSize, done)
			}
		})
		return rung{steps: float64(eng.Steps())}
	})
}

// ladderSSDBuild times constructing the ssd profile.
func ladderSSDBuild() rung {
	return measureBuilds(func(i int) { profiles.NewSSD(sim.NewEngine(), sim.NewRNG(15, uint64(i))) })
}

// ladderPrecondition times expgrid.Precondition on a fresh ssd, half
// (write cells) or full (read and mixed cells).
func ladderPrecondition(forWrites bool) rung {
	var t time.Duration
	for i := 0; i < 3; i++ {
		d := profiles.NewSSD(sim.NewEngine(), sim.NewRNG(16, uint64(i)))
		t0 := time.Now()
		expgrid.Precondition(d, forWrites)
		t += time.Since(t0)
	}
	return rung{ns: float64(t.Nanoseconds()) / 3}
}

// measureBuilds times four calls of f and returns the mean per call.
func measureBuilds(f func(i int)) rung {
	t0 := time.Now()
	for i := 0; i < 4; i++ {
		f(i)
	}
	return rung{ns: float64(time.Since(t0).Nanoseconds()) / 4}
}

// ftlWrites is how many host writes one FTL rung repetition times.
const ftlWrites = 4096

// ladderFTL drives FTL.HostWrite with the workload's SSD write size at
// QD 32, buffer drain included, on a fresh ssd per repetition: half full
// and short of GC (gc false), or full and overwritten until GC is running
// (gc true). Each rung counts its flash programs and GC slots per write,
// so shares can place the workload between the two regimes by its own GC
// slots per write. A fixed write count keeps every repetition in the
// same regime.
func ladderFTL(m mix, gc bool) rung {
	pages := max(m.ssdWriteSize/4096, 1)
	draws := pattern(patternMask+1, 19)
	var runs []rung
	for rep := 0; rep < 3; rep++ {
		d := profiles.NewSSD(sim.NewEngine(), sim.NewRNG(17, uint64(rep)))
		expgrid.Precondition(d, !gc)
		f, eng := d.FTL(), d.Engine()
		k := 0
		write := func(_ int, done func()) {
			k++
			lpn := int64(draws[k&patternMask]%uint64(f.UserLPNs()/pages)) * pages
			f.HostWrite(lpn, pages, done)
		}
		for gc && !f.GCActive() && k < 1<<20 {
			drive(eng, 256, 32, write)
		}
		s0, p0, c0 := eng.Steps(), d.FlashCounters().UnitPrograms, f.Counters()
		t0 := time.Now()
		drive(eng, ftlWrites, 32, write)
		done := false
		f.Flush(func() { done = true })
		eng.Run()
		if !done {
			panic("ladder: ftl flush did not complete")
		}
		el := time.Since(t0)
		c1 := f.Counters()
		runs = append(runs, rung{ns: float64(el.Nanoseconds()) / ftlWrites, steps: float64(eng.Steps()-s0) / ftlWrites, sub: map[string]float64{
			"flash.program": float64(d.FlashCounters().UnitPrograms-p0) / ftlWrites,
			"ftl.gc_slots":  float64(c1.GCSlots-c0.GCSlots) / ftlWrites,
		}})
	}
	return medianRung(runs)
}

// medianRung returns the run with the median ns per call.
func medianRung(runs []rung) rung {
	ns := make([]float64, len(runs))
	for i, r := range runs {
		ns[i] = r.ns
	}
	m := median(ns)
	best := runs[0]
	for _, r := range runs {
		if math.Abs(r.ns-m) < math.Abs(best.ns-m) {
			best = r
		}
	}
	return best
}

func ladderFlash(cfg flash.Config) rung {
	return measure(func(n int) rung {
		eng := sim.NewEngine()
		a := flash.NewArray(eng, cfg, sim.NewRNG(20, 21))
		dies := cfg.Dies()
		drive(eng, n, 2*dies, func(i int, done func()) { a.ProgramUnit(i%dies, done) })
		return rung{steps: float64(eng.Steps())}
	})
}

// ladderZipf times NewZipf at the suite's key space, the median of three
// builds per skew, averaged over the skews (every skew has as many cells).
func ladderZipf(s scenarioKV) rung {
	var sum float64
	for _, th := range s.skews {
		var ns []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			workload.NewZipf(int64(s.keySpace), th)
			ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		}
		sum += median(ns)
	}
	return rung{ns: sum / float64(len(s.skews))}
}

// scenarioKV is the KV suite shape the KV rungs reproduce.
type scenarioKV struct {
	keySpace  uint64
	skews     []float64
	valueSize int64
	memtable  int64
}

// ladderKV drives Put, then Get, on one storage engine over a private
// fully preconditioned volume of the workload's tier, with the suite's
// key skews and value size. It returns the put and get rungs; each counts
// the device I/Os per call.
func ladderKV(m mix, engine string, s scenarioKV, cfg essd.Config) (put, get rung) {
	zipfs := make([]*workload.Zipf, len(s.skews))
	for i, th := range s.skews {
		zipfs[i] = workload.NewZipf(int64(s.keySpace), th)
	}
	keys := make([]uint64, patternMask+1)
	rng := sim.NewRNG(22, 23)
	for i := range keys {
		keys[i] = uint64(zipfs[i%len(zipfs)].Next(rng))
	}
	build := func() (*sim.Engine, kv.Engine) {
		eng := sim.NewEngine()
		vol := essd.New(eng, cfg, sim.NewRNG(24, 25))
		expgrid.Precondition(vol, false)
		if engine == "lsm" {
			lcfg := kv.DefaultLSMConfig()
			lcfg.MemtableBytes = s.memtable
			lcfg.L0CompactTrigger = 2
			return eng, kv.NewLSM(vol, lcfg)
		}
		return eng, kv.NewPageStore(vol, kv.DefaultPageStoreConfig(vol))
	}
	run := func(n int, gets bool) rung {
		eng, e := build()
		if gets { // lookups need data to find
			drive(eng, 2000, m.kvDepth, func(i int, done func()) { e.Put(keys[i&patternMask], s.valueSize, done) })
			barrier(eng, e)
		}
		s0, st0 := eng.Steps(), e.Stats()
		t0 := time.Now()
		drive(eng, n, m.kvDepth, func(i int, done func()) {
			if gets {
				e.Get(keys[(i*7)&patternMask], done)
			} else {
				e.Put(keys[i&patternMask], s.valueSize, done)
			}
		})
		barrier(eng, e)
		el := time.Since(t0)
		st := e.Stats()
		ios := float64(st.DeviceReads + st.DeviceWrites - st0.DeviceReads - st0.DeviceWrites)
		return rung{ns: float64(el.Nanoseconds()), steps: float64(eng.Steps() - s0), sub: map[string]float64{"essd.io": ios}}
	}
	return measure(func(n int) rung { return run(n, false) }),
		measure(func(n int) rung { return run(n, true) })
}

func barrier(eng *sim.Engine, e kv.Engine) {
	done := false
	e.Barrier(func() { done = true })
	eng.Run()
	if !done {
		panic("ladder: kv barrier did not complete")
	}
}

// ssdFlash is the flash geometry of the ssd profile.
func ssdFlash() flash.Config { return profiles.SSDConfig().Flash }
