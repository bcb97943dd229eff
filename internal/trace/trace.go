// Package trace records and replays block I/O traces in a simple text
// format, one operation per line:
//
//	<issue-ns> <op> <offset> <size>
//
// where op is r, w, t (trim) or f (flush). Traces let users replay captured
// application I/O against any simulated device — the standard methodology
// for evaluating cloud-storage suitability of an existing workload.
package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
)

// Record is one traced I/O.
type Record struct {
	At     sim.Duration // issue time relative to trace start
	Op     blockdev.Op
	Offset int64
	Size   int64
}

func opLetter(op blockdev.Op) string {
	switch op {
	case blockdev.Read:
		return "r"
	case blockdev.Write:
		return "w"
	case blockdev.Trim:
		return "t"
	case blockdev.Flush:
		return "f"
	}
	return "?"
}

func parseOp(s string) (blockdev.Op, error) {
	switch s {
	case "r", "R", "read":
		return blockdev.Read, nil
	case "w", "W", "write":
		return blockdev.Write, nil
	case "t", "T", "trim":
		return blockdev.Trim, nil
	case "f", "F", "flush":
		return blockdev.Flush, nil
	default:
		return 0, fmt.Errorf("trace: unknown op %q", s)
	}
}

// Write serializes records to w.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if _, err := fmt.Fprintf(bw, "%d %s %d %d\n",
			int64(r.At), opLetter(r.Op), r.Offset, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace. Lines starting with '#' are comments. Records must
// be sorted by issue time.
func Read(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	lineNo := 0
	var last sim.Duration
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		at, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("trace: line %d: bad timestamp %q", lineNo, fields[0])
		}
		op, err := parseOp(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
		}
		off, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || off < 0 {
			return nil, fmt.Errorf("trace: line %d: bad offset %q", lineNo, fields[2])
		}
		size, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil || (size <= 0 && op != blockdev.Flush) {
			return nil, fmt.Errorf("trace: line %d: bad size %q", lineNo, fields[3])
		}
		if sim.Duration(at) < last {
			return nil, fmt.Errorf("trace: line %d: timestamps not sorted", lineNo)
		}
		last = sim.Duration(at)
		recs = append(recs, Record{At: sim.Duration(at), Op: op, Offset: off, Size: size})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// ReplayResult summarizes a trace replay.
type ReplayResult struct {
	Device string
	Ops    uint64
	Bytes  int64
	// Elapsed spans replay start to the last completion, so it includes the
	// drain of whatever was still in flight after the final issue.
	Elapsed sim.Duration
	// Nominal is the replay's nominal span: replay start to the last
	// record's scheduled issue time. Issues never slip (the replay is open
	// loop), so Nominal is a property of the trace alone.
	Nominal sim.Duration
	// Lag is Elapsed - Nominal: how long past the last scheduled issue the
	// replay ran. A device keeping up shows roughly one request latency;
	// a backlogged device shows the accumulated queue drain. Unlike
	// Stretch, Lag is meaningful even for instantaneous traces.
	Lag sim.Duration
	Lat *stats.Histogram
	// MaxOutstanding is the peak number of in-flight requests — the queue
	// the traced arrival schedule built up on this device.
	MaxOutstanding int
	// Stretch is Elapsed divided by Nominal: >1 means completions trailed
	// the traced issue rate. Because Elapsed includes the final drain, a
	// device that keeps up perfectly still reports slightly above 1 on
	// short traces. Stretch is 0 (undefined) when Nominal is 0 — a
	// single-record or instantaneous-burst trace — in which case use Lag.
	Stretch float64
}

// Replay issues the records against the device at their recorded times
// (open-loop) and waits for all completions. Records need not be sorted:
// they issue in (max(At, 0), index) order, a negative At meaning the
// replay's start.
func Replay(dev blockdev.Device, recs []Record) *ReplayResult {
	eng := dev.Engine()
	rp := &replayer{
		dev:   dev,
		eng:   eng,
		recs:  issueOrder(recs),
		res:   &ReplayResult{Device: dev.Name(), Lat: stats.NewHistogram()},
		start: eng.Now(),
	}
	if len(recs) > 0 {
		rp.base = eng.Reserve(uint64(len(recs)))
		rp.fire = rp.issue
		rp.next()
	}
	eng.Run()
	res := rp.res
	res.Elapsed = eng.Now().Sub(rp.start)
	if len(recs) > 0 {
		res.Nominal = recs[len(recs)-1].At
	}
	res.Lag = res.Elapsed - res.Nominal
	if res.Nominal > 0 {
		res.Stretch = float64(res.Elapsed) / float64(res.Nominal)
	}
	return res
}

// replayer keeps exactly one record pending: record i of the issue order
// runs on sequence number base+i, reserved when the replay starts, so
// every event keeps the (time, sequence) key that scheduling all records
// up front would have given it.
type replayer struct {
	dev         blockdev.Device
	eng         *sim.Engine
	recs        []Record // in issue order
	res         *ReplayResult
	start       sim.Time
	outstanding int
	base        uint64 // sequence number of recs[0]
	i           int    // index of the pending record
	fire        func(any)
}

// issueOrder returns recs in the order an up-front schedule of all of them
// runs: by max(At, 0), since the engine clamps past times to now, then by
// index. Sorted input, such as Read and ParseMSR return, is not copied.
func issueOrder(recs []Record) []Record {
	byClampedAt := func(a, b Record) int { return cmp.Compare(max(a.At, 0), max(b.At, 0)) }
	if slices.IsSortedFunc(recs, byClampedAt) {
		return recs
	}
	sorted := slices.Clone(recs)
	slices.SortStableFunc(sorted, byClampedAt)
	return sorted
}

// next schedules the pending record on its reserved sequence number.
func (rp *replayer) next() {
	at := rp.start.Add(rp.recs[rp.i].At)
	rp.eng.AtSeq(at, rp.base+uint64(rp.i), rp.fire, nil)
}

// issue submits the pending record, then schedules the next.
func (rp *replayer) issue(any) {
	rec := &rp.recs[rp.i]
	rp.outstanding++
	if rp.outstanding > rp.res.MaxOutstanding {
		rp.res.MaxOutstanding = rp.outstanding
	}
	rp.dev.Submit(&blockdev.Request{
		Op:     rec.Op,
		Offset: rec.Offset,
		Size:   rec.Size,
		OnComplete: func(r *blockdev.Request, at sim.Time) {
			rp.res.Lat.Record(r.Latency(at))
			rp.res.Ops++
			rp.res.Bytes += r.Size
			rp.outstanding--
		},
	})
	if rp.i++; rp.i < len(rp.recs) {
		rp.next()
	}
}

// Recorder wraps a device and captures every submitted request, for
// building traces from synthetic workloads.
type Recorder struct {
	blockdev.Device
	start sim.Time
	Recs  []Record
}

// NewRecorder wraps dev, recording from the device engine's current time.
func NewRecorder(dev blockdev.Device) *Recorder {
	return &Recorder{Device: dev, start: dev.Engine().Now()}
}

// Submit implements blockdev.Device.
func (r *Recorder) Submit(req *blockdev.Request) {
	r.Recs = append(r.Recs, Record{
		At:     r.Device.Engine().Now().Sub(r.start),
		Op:     req.Op,
		Offset: req.Offset,
		Size:   req.Size,
	})
	r.Device.Submit(req)
}
