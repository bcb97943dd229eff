// Package contract turns the paper's unwritten contract (§III) into
// machine-checkable rules. Each of the four observations becomes a check
// that runs the corresponding experiment on an ESSD and the local-SSD
// baseline and verdicts the claim with quantitative evidence. This is the
// "contract checker" a cloud storage user would run against a new volume
// type before porting local-SSD-tuned software onto it.
package contract

import (
	"encoding/json"
	"fmt"
	"io"

	"essdsim/internal/harness"
	"essdsim/internal/workload"
)

// Check is the verdict on one observation.
type Check struct {
	ID       string   `json:"id"`
	Title    string   `json:"title"`
	Passed   bool     `json:"passed"`
	Evidence []string `json:"evidence"`
}

// Report is a full contract evaluation of one ESSD against a local SSD
// baseline.
type Report struct {
	ESSD   string  `json:"essd"`
	SSD    string  `json:"ssd"`
	Checks []Check `json:"checks"`
}

// Passed reports whether every check passed.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Passed {
			return false
		}
	}
	return true
}

// The thresholds of the contract verdicts, derived from the paper's
// findings.
const (
	// O1: minimum ESSD/SSD latency gap at small/low-QD I/O for the "tens
	// to a hundred times" clause, and the minimum factor by which scaling
	// I/O must shrink the gap.
	minSmallGap, minGapShrink float64 = 10, 2
	// O2: latest acceptable SSD knee and earliest acceptable ESSD knee,
	// as capacity multiples.
	maxSSDKnee, minESSDKnee float64 = 1.4, 1.8
	// O3: minimum ESSD rand/seq gain and the band around 1.0 required of
	// the SSD.
	minESSDGain, ssdGainBand float64 = 1.15, 0.15
	// O4: maximum ESSD mixed-throughput spread and minimum SSD spread.
	maxESSDSpread, minSSDSpread float64 = 0.10, 0.25
)

// CheckObservation1 verdicts the latency-gap clause: small/low-QD I/O gaps
// are tens of times, the gap shrinks as I/O scales up, and random reads
// show the smallest gap.
func CheckObservation1(essd, ssd *harness.LatencyGrid) Check {
	c := Check{ID: "O1", Title: "Latency gap: tens-to-hundred× when I/Os are not scaled up"}
	gap := func(p workload.Pattern, bs int64, qd int) float64 {
		e, s := essd.Cell(p, bs, qd), ssd.Cell(p, bs, qd)
		if e == nil || s == nil || s.Avg <= 0 {
			return -1
		}
		return float64(e.Avg) / float64(s.Avg)
	}
	smallBS, bigBS := int64(4<<10), int64(256<<10)
	lowQD, highQD := 1, 16
	pass := true
	var worstShrink float64 = 1e18
	var minSmall float64 = 1e18
	for _, p := range []workload.Pattern{workload.RandWrite, workload.SeqWrite, workload.SeqRead} {
		small := gap(p, smallBS, lowQD)
		big := gap(p, bigBS, highQD)
		if small < 0 || big <= 0 {
			continue
		}
		shrink := small / big
		if small < minSmall {
			minSmall = small
		}
		if shrink < worstShrink {
			worstShrink = shrink
		}
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"%s: gap %.1fx at (4K,QD1) -> %.1fx at (256K,QD16), shrink %.1fx",
			p, small, big, shrink))
	}
	if minSmall < minSmallGap {
		pass = false
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"FAIL: small-I/O gap %.1fx below the %.0fx clause", minSmall, minSmallGap))
	}
	if worstShrink < minGapShrink {
		pass = false
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"FAIL: scaling I/O shrank the gap only %.1fx (< %.1fx)", worstShrink, minGapShrink))
	}
	// Random reads: the smallest gap of the four patterns.
	rrGap := gap(workload.RandRead, smallBS, lowQD)
	others := []float64{
		gap(workload.RandWrite, smallBS, lowQD),
		gap(workload.SeqWrite, smallBS, lowQD),
		gap(workload.SeqRead, smallBS, lowQD),
	}
	for _, o := range others {
		if rrGap > o {
			pass = false
			c.Evidence = append(c.Evidence, fmt.Sprintf(
				"FAIL: random-read gap %.1fx not the smallest (vs %.1fx)", rrGap, o))
			break
		}
	}
	c.Evidence = append(c.Evidence, fmt.Sprintf("random-read gap %.1fx is the smallest", rrGap))
	c.Passed = pass
	return c
}

// CheckObservation2 verdicts the GC clause: the ESSD's throughput cliff
// under sustained random writes appears far later than the local SSD's, or
// not at all.
func CheckObservation2(essd, ssd *harness.SustainedResult) Check {
	c := Check{ID: "O2", Title: "GC impact appears much later or disappears"}
	c.Evidence = append(c.Evidence, fmt.Sprintf(
		"%s: knee at %.2fx capacity, tail %.0f MB/s, WA %.1f",
		ssd.Device, ssd.KneeCapFrac, ssd.TailRate/1e6, ssd.WriteAmp))
	if essd.KneeCapFrac < 0 {
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"%s: no knee within %.1fx capacity (GC impact disappears)",
			essd.Device, float64(essd.TotalWritten)/float64(essd.Capacity)))
	} else {
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"%s: knee at %.2fx capacity (throttled: %v)",
			essd.Device, essd.KneeCapFrac, essd.Throttled))
	}
	ssdOK := ssd.KneeCapFrac >= 0 && ssd.KneeCapFrac <= maxSSDKnee
	essdOK := essd.KneeCapFrac < 0 || essd.KneeCapFrac >= minESSDKnee
	if !ssdOK {
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"FAIL: SSD baseline knee %.2fx outside (0, %.1fx]", ssd.KneeCapFrac, maxSSDKnee))
	}
	if !essdOK {
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"FAIL: ESSD knee %.2fx earlier than %.1fx", essd.KneeCapFrac, minESSDKnee))
	}
	c.Passed = ssdOK && essdOK
	return c
}

// CheckObservation3 verdicts the access-pattern clause: random writes beat
// sequential writes on the ESSD while the SSD shows no significant
// difference.
func CheckObservation3(essd, ssd *harness.RandSeqResult) Check {
	c := Check{ID: "O3", Title: "Random-write throughput beats sequential"}
	eGain, eAt := essd.MaxGain()
	c.Evidence = append(c.Evidence, fmt.Sprintf(
		"%s: max gain %.2fx at bs=%dK QD%d",
		essd.Device, eGain, eAt.BlockSize>>10, eAt.QueueDepth))
	sGain, _ := ssd.MaxGain()
	c.Evidence = append(c.Evidence, fmt.Sprintf("%s: max gain %.2fx", ssd.Device, sGain))
	pass := true
	if eGain < minESSDGain {
		pass = false
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"FAIL: ESSD gain %.2fx below %.2fx", eGain, minESSDGain))
	}
	// SSD gains should hover around 1.0 at every cell.
	for _, cell := range ssd.Cells {
		if g := cell.Gain(); g < 1-ssdGainBand || g > 1+ssdGainBand {
			pass = false
			c.Evidence = append(c.Evidence, fmt.Sprintf(
				"FAIL: SSD gain %.2fx at bs=%dK QD%d outside 1±%.2f",
				g, cell.BlockSize>>10, cell.QueueDepth, ssdGainBand))
			break
		}
	}
	c.Passed = pass
	return c
}

// CheckObservation4 verdicts the throughput-budget clause: ESSD maximum
// bandwidth is deterministic across read/write mixes; the SSD's is not.
func CheckObservation4(essd, ssd *harness.MixedResult) Check {
	c := Check{ID: "O4", Title: "Maximum bandwidth deterministic across access patterns"}
	eMin, eMax := essd.MinMax()
	sMin, sMax := ssd.MinMax()
	c.Evidence = append(c.Evidence,
		fmt.Sprintf("%s: total %.2f-%.2f GB/s (spread %.1f%%)",
			essd.Device, eMin/1e9, eMax/1e9, essd.Spread()*100),
		fmt.Sprintf("%s: total %.2f-%.2f GB/s (spread %.1f%%)",
			ssd.Device, sMin/1e9, sMax/1e9, ssd.Spread()*100))
	pass := true
	if essd.Spread() > maxESSDSpread {
		pass = false
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"FAIL: ESSD spread %.1f%% above %.0f%%", essd.Spread()*100, maxESSDSpread*100))
	}
	if ssd.Spread() < minSSDSpread {
		pass = false
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"FAIL: SSD spread %.1f%% below %.0f%% (baseline should be pattern-sensitive)",
			ssd.Spread()*100, minSSDSpread*100))
	}
	c.Passed = pass
	return c
}

// CheckObservation4IOPS verdicts the footnote of Observation #4: byte
// throughput is deterministic but the achieved IOPS varies strongly with
// I/O size (so IOPS is not the contractually flat quantity).
func CheckObservation4IOPS(essd *harness.IOPSResult) Check {
	c := Check{ID: "O4-IOPS", Title: "Guaranteed IOPS is non-deterministic and tied to I/O size"}
	for _, p := range essd.Points {
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"bs=%dK: %.0f IOPS (%.2f GB/s)", p.BlockSize>>10, p.IOPS, p.Bytes/1e9))
	}
	spread := essd.IOPSSpread()
	c.Evidence = append(c.Evidence, fmt.Sprintf("IOPS spread across sizes: %.0f%%", spread*100))
	// IOPS must vary far more across sizes than the byte throughput does.
	c.Passed = spread > 2*maxESSDSpread
	if !c.Passed {
		c.Evidence = append(c.Evidence, fmt.Sprintf(
			"FAIL: IOPS spread %.1f%% too flat; expected size-coupled IOPS", spread*100))
	}
	return c
}

// EvalOptions configure a full contract evaluation.
type EvalOptions struct {
	Harness harness.Options
	// CapMultiple is the sustained-write volume in capacity multiples
	// (default 3, the paper's setting).
	CapMultiple float64
	// Quick shrinks the grids for fast runs (CI, benchmarks).
	Quick bool
}

// Evaluate runs all four observation checks of the unwritten contract for
// one ESSD factory against the local-SSD baseline factory.
func Evaluate(essdFactory, ssdFactory harness.Factory, opts EvalOptions) *Report {
	if opts.CapMultiple <= 0 {
		opts.CapMultiple = 3
	}
	sizes, qds := harness.Fig2Sizes, harness.Fig2QDs
	f4sizes, f4qds := harness.Fig4Sizes, harness.Fig4QDs
	ratios := harness.Fig5Ratios
	if opts.Quick {
		sizes, qds = []int64{4 << 10, 256 << 10}, []int{1, 16}
		f4sizes, f4qds = []int64{16 << 10, 256 << 10}, []int{1, 32}
		ratios = []int{0, 30, 70, 100}
	}
	eGrid := harness.RunLatencyGridWith(essdFactory, harness.Fig2Patterns, sizes, qds, opts.Harness)
	sGrid := harness.RunLatencyGridWith(ssdFactory, harness.Fig2Patterns, sizes, qds, opts.Harness)
	eSus := harness.RunSustainedWrite(essdFactory, opts.CapMultiple, opts.Harness)
	sSus := harness.RunSustainedWrite(ssdFactory, opts.CapMultiple, opts.Harness)
	eRS := harness.RunRandSeqSweepWith(essdFactory, f4sizes, f4qds, opts.Harness)
	sRS := harness.RunRandSeqSweepWith(ssdFactory, f4sizes, f4qds, opts.Harness)
	eMix := harness.RunMixedSweepWith(essdFactory, ratios, opts.Harness)
	sMix := harness.RunMixedSweepWith(ssdFactory, ratios, opts.Harness)
	iopsSizes := []int64{4 << 10, 64 << 10, 256 << 10}
	eIOPS := harness.RunIOPSSweep(essdFactory, iopsSizes, opts.Harness)
	return &Report{
		ESSD: eGrid.Device,
		SSD:  sGrid.Device,
		Checks: []Check{
			CheckObservation1(eGrid, sGrid),
			CheckObservation2(eSus, sSus),
			CheckObservation3(eRS, sRS),
			CheckObservation4(eMix, sMix),
			CheckObservation4IOPS(eIOPS),
		},
	}
}

// Format writes a human-readable contract report.
func Format(w io.Writer, r *Report) {
	fmt.Fprintf(w, "The Unwritten Contract of Cloud-based ESSDs — checker report\n")
	fmt.Fprintf(w, "ESSD: %s\nBaseline: %s\n", r.ESSD, r.SSD)
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Passed {
			status = "FAIL"
		}
		fmt.Fprintf(w, "\n[%s] %s — %s\n", status, c.ID, c.Title)
		for _, e := range c.Evidence {
			fmt.Fprintf(w, "    %s\n", e)
		}
	}
	fmt.Fprintf(w, "\nOverall: ")
	if r.Passed() {
		fmt.Fprintln(w, "the device honours the unwritten contract of cloud-based ESSDs.")
	} else {
		fmt.Fprintln(w, "one or more contract clauses FAILED; see evidence above.")
	}
}

// MarshalJSON renders the report as indented JSON.
func (r *Report) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
