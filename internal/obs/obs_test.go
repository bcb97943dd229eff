package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"essdsim/internal/sim"
)

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(4)
	sampled := 0
	for seq := uint64(0); seq < 16; seq++ {
		r := tr.Start("vol", 0, "write", seq)
		if (seq%4 == 0) != (r != nil) {
			t.Fatalf("seq %d: sampled=%v with SampleEvery=4", seq, r != nil)
		}
		if r != nil {
			sampled++
			r.Span("vol", "stage", 0, 10, 3, "fifo", "")
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 requests, want 4", sampled)
	}
	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("recorded %d spans, want 4", got)
	}
	// Request IDs are dense in sampling order.
	for i, s := range tr.Spans() {
		if s.Req != i {
			t.Fatalf("span %d has req id %d", i, s.Req)
		}
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	if r := tr.Start("vol", 0, "read", 0); r != nil {
		t.Fatal("nil tracer sampled a request")
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer has spans")
	}
	var r *Req
	r.Span("vol", "stage", 0, 1, 0, "", "") // must not panic
	var p *Prober
	p.Add("g", func() float64 { return 0 })
	p.Attach(sim.NewEngine())
	if p.Series("g") != nil {
		t.Fatal("nil prober is not inert")
	}
	var c *Config
	if c.Enabled() {
		t.Fatal("nil config enabled")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("nil config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (&Config{SampleEvery: 0}).Validate(); err == nil {
		t.Fatal("SampleEvery 0 accepted")
	}
	if err := (&Config{SampleEvery: 1}).Validate(); err != nil {
		t.Fatalf("SampleEvery 1 rejected: %v", err)
	}
}

func TestSpanWaitClamping(t *testing.T) {
	tr := NewTracer(1)
	r := tr.Start("v", 0, "w", 0)
	r.Span("v", "neg", 100, 200, -5, "", "")
	r.Span("v", "over", 100, 200, 500, "", "")
	spans := tr.Spans()
	if spans[0].Wait != 0 {
		t.Fatalf("negative wait not clamped to 0: %v", spans[0].Wait)
	}
	if spans[1].Wait != 100 {
		t.Fatalf("wait not clamped to span length: %v", spans[1].Wait)
	}
}

func TestTraceCSVDeterministicSortAndQuoting(t *testing.T) {
	tr := NewTracer(1)
	// Emit out of (req, start) order to exercise the export sort.
	r1 := tr.Start("vol,a", 0, "write", 0)
	r2 := tr.Start("vol,a", 0, "write", 1)
	r2.Span("lane", "late", 50, 60, 0, "wfq", `detail "quoted"`)
	r1.Span("lane", "b-stage", 10, 20, 2, "fifo", "")
	r1.Span("lane", "a-stage", 10, 20, 0, "fifo", "")
	var buf bytes.Buffer
	cap := &Capture{Label: "cell,1", Tracer: tr}
	if err := WriteTraceCSV(&buf, []*Capture{cap, nil}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header + 3 spans:\n%s", len(lines), buf.String())
	}
	if lines[0] != "cell,req,volume,flow,op,lane,stage,start_s,end_s,wait_s,policy,detail" {
		t.Fatalf("bad header: %s", lines[0])
	}
	// req 0's same-start spans sort by stage name; req 1 follows.
	if !strings.Contains(lines[1], "a-stage") || !strings.Contains(lines[2], "b-stage") || !strings.Contains(lines[3], "late") {
		t.Fatalf("spans not in (req, start, lane, stage) order:\n%s", buf.String())
	}
	// Comma-bearing labels and quote-bearing details are CSV-quoted.
	if !strings.HasPrefix(lines[1], `"cell,1",0,"vol,a"`) {
		t.Fatalf("label/volume not quoted: %s", lines[1])
	}
	if !strings.Contains(lines[3], `"detail \"quoted\""`) {
		t.Fatalf("detail not quoted: %s", lines[3])
	}
}

func TestTraceEventsJSON(t *testing.T) {
	tr := NewTracer(1)
	r := tr.Start("vol", 0, "write", 0)
	r.Span("vol", "fe-admit", 0, 1000, 200, "fifo", "")
	r.Span("c0", "svc", 1000, 3000, 0, "wfq", "n0")
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, []*Capture{{Label: "cell", Tracer: tr}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace-event output is not valid JSON: %v", err)
	}
	var meta, durs int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			durs++
			if ev.Dur <= 0 {
				t.Fatalf("duration event %s has dur %v", ev.Name, ev.Dur)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if durs != 2 {
		t.Fatalf("got %d duration events, want 2", durs)
	}
	if meta != 3 { // one process_name + two thread_names (two lanes)
		t.Fatalf("got %d metadata events, want 3", meta)
	}
}

func TestProberSampling(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProber(10 * sim.Microsecond)
	v := 0.0
	p.Add("gauge", func() float64 { return v })
	p.Attach(eng)
	eng.Schedule(35*sim.Microsecond, func() { v = 7 })
	eng.Run()
	// Ticks at 10, 20, 30 µs fire before the workload event; the tick due
	// at 40 µs is a daemon and is abandoned when the workload drains.
	s := p.Series("gauge")
	if len(s) != 3 {
		t.Fatalf("got %d samples, want 3: %v", len(s), s)
	}
	if eng.Now() != sim.Time(35*sim.Microsecond) {
		t.Fatalf("probe tick extended the run to %v", sim.Duration(eng.Now()))
	}
	for i, pt := range s {
		if want := sim.Time(10*(i+1)) * sim.Time(sim.Microsecond); pt.T != want {
			t.Fatalf("sample %d at %v, want %v", i, pt.T, want)
		}
		if pt.V != 0 {
			t.Fatalf("sample %d saw post-workload value %v", i, pt.V)
		}
	}
	if p.Series("missing") != nil {
		t.Fatal("unknown series not nil")
	}
}

func TestProbeCSVAndJSON(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProber(10 * sim.Microsecond)
	p.Add("a", func() float64 { return 1.5 })
	p.Add("b", func() float64 { return float64(eng.Now()) })
	p.Attach(eng)
	eng.Schedule(25*sim.Microsecond, func() {})
	eng.Run()
	cap := &Capture{Label: "cell", Prober: p}
	var csv bytes.Buffer
	if err := WriteProbesCSV(&csv, []*Capture{cap}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 5 { // header + 2 ticks x 2 gauges
		t.Fatalf("got %d CSV lines, want 5:\n%s", len(lines), csv.String())
	}
	if lines[0] != "cell,t_s,probe,value" {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.Contains(lines[1], ",a,1.5") {
		t.Fatalf("first row should be gauge a at tick 1: %s", lines[1])
	}
	var js bytes.Buffer
	if err := WriteProbesJSON(&js, []*Capture{cap}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cells []struct {
			Cell      string  `json:"cell"`
			IntervalS float64 `json:"interval_s"`
			Probes    []struct {
				Name   string       `json:"name"`
				Points [][2]float64 `json:"points"`
			} `json:"probes"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("probe JSON invalid: %v", err)
	}
	if len(doc.Cells) != 1 || len(doc.Cells[0].Probes) != 2 || len(doc.Cells[0].Probes[0].Points) != 2 {
		t.Fatalf("bad probe JSON shape: %+v", doc)
	}
}

func TestExplainFindings(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProber(sim.Millisecond)
	debt := 0.0
	p.Add("debt", func() float64 { return debt })
	p.Add("vic", func() float64 { return 100 })
	p.Add("agg", func() float64 { return 300 })
	p.Attach(eng)
	eng.Schedule(4500*sim.Microsecond, func() {})
	eng.Schedule(1500*sim.Microsecond, func() { debt = 50 })
	eng.Run()

	in := ExplainInput{
		Cell: "c", Victim: "vic",
		Tail: []TailPoint{
			{T: 0, Lat: sim.Millisecond},
			{T: sim.Time(sim.Millisecond), Lat: sim.Millisecond},
			{T: sim.Time(2 * sim.Millisecond), Lat: sim.Millisecond},
			{T: sim.Time(3 * sim.Millisecond), Lat: 10 * sim.Millisecond},
		},
		ThrottleOnset:     sim.Time(2500 * sim.Microsecond),
		CreditExhaustedAt: -1,
		DebtThreshold:     40,
		Probes:            p,
		PooledDebtSeries:  "debt",
		VictimBytesSeries: "vic",
		AggrBytesSeries:   []string{"agg"},
	}
	e := Explain(in)
	if e.Inflection != sim.Time(3*sim.Millisecond) {
		t.Fatalf("inflection at %v, want 3ms", e.Inflection)
	}
	if len(e.Findings) != 4 {
		t.Fatalf("got %d findings, want 4: %+v", len(e.Findings), e.Findings)
	}
	// Timed findings first, in time order; untimed traffic share last.
	if e.Findings[0].T != sim.Time(2*sim.Millisecond) || !strings.Contains(e.Findings[0].What, "debt crossed") {
		t.Fatalf("finding 0: %+v", e.Findings[0])
	}
	if !strings.Contains(e.Findings[1].What, "limiter engaged") {
		t.Fatalf("finding 1: %+v", e.Findings[1])
	}
	if !strings.Contains(e.Findings[2].What, "tail inflection") {
		t.Fatalf("finding 2: %+v", e.Findings[2])
	}
	if e.Findings[3].T != -1 || !strings.Contains(e.Findings[3].What, "75% of fabric uplink") {
		t.Fatalf("finding 3: %+v", e.Findings[3])
	}

	quiet := Explain(ExplainInput{Cell: "q", Victim: "v", ThrottleOnset: -1, CreditExhaustedAt: -1})
	if quiet.Inflection != -1 || len(quiet.Findings) != 1 ||
		!strings.Contains(quiet.Findings[0].What, "no cliff signals") {
		t.Fatalf("quiet cell: %+v", quiet)
	}

	var buf bytes.Buffer
	FormatExplanations(&buf, []*Explanation{e, nil, quiet})
	out := buf.String()
	if !strings.HasPrefix(out, "--- Cliff attribution (obs.Explain) ---\n") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "cell c (victim vic):") || !strings.Contains(out, "cell q (victim v):") {
		t.Fatalf("missing cell paragraphs:\n%s", out)
	}
	if strings.Count(out, "  - ") != 5 {
		t.Fatalf("want 5 finding lines:\n%s", out)
	}
}
