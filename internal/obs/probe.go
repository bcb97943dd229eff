package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"essdsim/internal/sim"
)

// Prober samples a registry of read-only gauges on a simulated-time
// cadence. Samplers must not mutate simulator state or draw from any
// RNG — they read, so an instrumented run's measurements stay
// byte-identical to an uninstrumented run's. The probe tick is a daemon
// event (sim.Engine.ScheduleDaemon): it interleaves with workload events
// without reordering them (the engine's (time, seq) order preserves the
// workload's relative schedule) and it never keeps the engine alive, so
// an instrumented run ends at exactly the same virtual time as an
// uninstrumented one — end-of-run snapshots of time-settled state (the
// cleaner's debt drain) stay byte-identical. The nil Prober is inert.
type Prober struct {
	interval sim.Duration
	eng      *sim.Engine
	names    []string
	fns      []func() float64
	times    []sim.Time
	rows     [][]float64
	tickFn   func()
}

// NewProber returns a prober with the given sampling cadence
// (minimum 1 µs — a zero or negative interval would livelock the
// engine's same-timestamp ring).
func NewProber(interval sim.Duration) *Prober {
	if interval < sim.Microsecond {
		interval = sim.Microsecond
	}
	return &Prober{interval: interval}
}

// Add registers a named gauge. Registration order fixes the sample and
// export order. Nil-receiver no-op, so subsystems install their probes
// unconditionally.
func (p *Prober) Add(name string, fn func() float64) {
	if p == nil || fn == nil {
		return
	}
	p.names = append(p.names, name)
	p.fns = append(p.fns, fn)
}

// Attach schedules the sampling tick on the engine as a daemon event.
// Call after the gauges are registered and before (or while) the
// workload is scheduled; the tick keeps rescheduling itself while live
// work remains and is abandoned when the workload drains, so it never
// extends the run.
func (p *Prober) Attach(eng *sim.Engine) {
	if p == nil || len(p.fns) == 0 {
		return
	}
	p.eng = eng
	if p.tickFn == nil {
		p.tickFn = p.tick
	}
	eng.ScheduleDaemon(p.interval, p.tickFn)
}

func (p *Prober) tick() {
	p.times = append(p.times, p.eng.Now())
	row := make([]float64, len(p.fns))
	for i, fn := range p.fns {
		row[i] = fn()
	}
	p.rows = append(p.rows, row)
	if p.eng.Live() > 0 {
		p.eng.ScheduleDaemon(p.interval, p.tickFn)
	}
}

// Point is one (time, value) sample of a probe series.
type Point struct {
	T sim.Time
	V float64
}

// Series extracts one gauge's full time series (nil when the name is
// unknown or the prober is nil).
func (p *Prober) Series(name string) []Point {
	if p == nil {
		return nil
	}
	for i, n := range p.names {
		if n != name {
			continue
		}
		out := make([]Point, len(p.times))
		for j, t := range p.times {
			out[j] = Point{T: t, V: p.rows[j][i]}
		}
		return out
	}
	return nil
}

func fmtFloat(v float64) string {
	b, _ := json.Marshal(v) // shortest round-trip, same rule as results
	return string(b)
}

// WriteProbesCSV writes every capture's probe series as one long-format
// deterministic CSV: one row per (cell, tick, gauge), ticks in time
// order, gauges in registration order (docs/formats.md, "State probes").
func WriteProbesCSV(w io.Writer, caps []*Capture) error {
	if _, err := io.WriteString(w, "cell,t_s,probe,value\n"); err != nil {
		return err
	}
	for _, c := range caps {
		if c == nil || c.Prober == nil {
			continue
		}
		p := c.Prober
		for j, t := range p.times {
			for i, name := range p.names {
				_, err := fmt.Fprintf(w, "%s,%s,%s,%s\n",
					csvField(c.Label), fmtSeconds(t), csvField(name), fmtFloat(p.rows[j][i]))
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// probeSeriesJSON is the JSON layout of one gauge's series.
type probeSeriesJSON struct {
	Name   string       `json:"name"`
	Points [][2]float64 `json:"points"` // [t_s, value]
}

type probeCellJSON struct {
	Cell      string            `json:"cell"`
	IntervalS float64           `json:"interval_s"`
	Probes    []probeSeriesJSON `json:"probes"`
}

// WriteProbesJSON writes every capture's probe series as deterministic
// JSON, one object per cell.
func WriteProbesJSON(w io.Writer, caps []*Capture) error {
	var cells []probeCellJSON
	for _, c := range caps {
		if c == nil || c.Prober == nil {
			continue
		}
		p := c.Prober
		cell := probeCellJSON{Cell: c.Label, IntervalS: p.interval.Seconds()}
		for i, name := range p.names {
			s := probeSeriesJSON{Name: name, Points: make([][2]float64, len(p.times))}
			for j, t := range p.times {
				s.Points[j] = [2]float64{sim.Duration(t).Seconds(), p.rows[j][i]}
			}
			cell.Probes = append(cell.Probes, s)
		}
		cells = append(cells, cell)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Cells []probeCellJSON `json:"cells"`
	}{Cells: cells})
}
