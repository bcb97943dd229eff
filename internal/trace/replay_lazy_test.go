package trace

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
)

// replayEager is the reference replay: it schedules every record with At
// before the engine runs, each with its own closure. Replay must
// reproduce it event for event.
func replayEager(dev blockdev.Device, recs []Record) *ReplayResult {
	eng := dev.Engine()
	res := &ReplayResult{Device: dev.Name(), Lat: stats.NewHistogram()}
	start := eng.Now()
	outstanding := 0
	for _, rec := range recs {
		rec := rec
		eng.At(start.Add(rec.At), func() {
			outstanding++
			if outstanding > res.MaxOutstanding {
				res.MaxOutstanding = outstanding
			}
			dev.Submit(&blockdev.Request{
				Op:     rec.Op,
				Offset: rec.Offset,
				Size:   rec.Size,
				OnComplete: func(r *blockdev.Request, at sim.Time) {
					res.Lat.Record(r.Latency(at))
					res.Ops++
					res.Bytes += r.Size
					outstanding--
				},
			})
		})
	}
	eng.Run()
	res.Elapsed = eng.Now().Sub(start)
	if len(recs) > 0 {
		res.Nominal = recs[len(recs)-1].At
	}
	res.Lag = res.Elapsed - res.Nominal
	if res.Nominal > 0 {
		res.Stretch = float64(res.Elapsed) / float64(res.Nominal)
	}
	return res
}

// loggedEcho is an echoDevice that logs each submission in a log it
// shares with the background events of the same engine.
type loggedEcho struct {
	echoDevice
	log *[]string
}

func (d *loggedEcho) Submit(r *blockdev.Request) {
	*d.log = append(*d.log, fmt.Sprint("io ", d.eng.Now(), r.Op, r.Offset))
	d.echoDevice.Submit(r)
}

// runReplay replays recs on a zero-latency (or lat) device while
// background events, some at the replay's start and some chaining
// zero-delay follow-ups, compete on the same engine.
func runReplay(recs []Record, lat sim.Duration, lazy bool) (*ReplayResult, []string, uint64, sim.Time) {
	eng := sim.NewEngine()
	var log []string
	for i := 0; i < 6; i++ {
		i := i
		eng.At(sim.Time(i*40), func() {
			log = append(log, fmt.Sprint("bg ", i, eng.Now()))
			eng.Schedule(0, func() { log = append(log, fmt.Sprint("bg0 ", i, eng.Now())) })
		})
	}
	dev := &loggedEcho{echoDevice{eng: eng, lat: lat}, &log}
	var res *ReplayResult
	if lazy {
		res = Replay(dev, recs)
	} else {
		res = replayEager(dev, recs)
	}
	return res, log, eng.Steps(), eng.Now()
}

// TestReplayOpenLoopMatchesEager checks the lazy replay against the eager
// reference on sorted, unsorted, tied and negative-time records, among
// background events at the same timestamps, with completions on the ready
// ring (zero latency) and later.
func TestReplayOpenLoopMatchesEager(t *testing.T) {
	rec := func(at sim.Duration, off int64) Record {
		return Record{At: at, Op: blockdev.Op(off % 2), Offset: off * 4096, Size: 4096}
	}
	cases := map[string][]Record{
		"empty":    nil,
		"sorted":   {rec(0, 0), rec(0, 1), rec(40, 2), rec(100, 3), rec(100, 4), rec(250, 5)},
		"unsorted": {rec(300, 0), rec(0, 1), rec(200, 2), rec(40, 3), rec(100, 4), rec(50, 5)},
		"tied":     {rec(80, 0), rec(80, 1), rec(0, 2), rec(80, 3), rec(0, 4)},
		"negative": {rec(-50, 0), rec(100, 1), rec(-10, 2), rec(0, 3), rec(100, 4), rec(-50, 5), rec(30, 6)},
	}
	for seed := uint64(0); seed < 40; seed++ {
		r := sim.NewRNG(seed, 5)
		recs := make([]Record, 1+r.IntN(200))
		for i := range recs {
			recs[i] = rec(sim.Duration(r.IntN(1100)-100)/10*10, int64(i))
		}
		cases[fmt.Sprint("random", seed)] = recs
	}
	for name, recs := range cases {
		for _, lat := range []sim.Duration{0, 25} {
			want, wantLog, wantSteps, wantNow := runReplay(recs, lat, false)
			got, gotLog, gotSteps, gotNow := runReplay(recs, lat, true)
			switch {
			case !slices.Equal(gotLog, wantLog):
				t.Errorf("%s, latency %d: logs differ\n got %v\nwant %v", name, lat, gotLog, wantLog)
			case !reflect.DeepEqual(got, want):
				t.Errorf("%s, latency %d: results differ: %+v vs %+v", name, lat, got, want)
			case gotSteps != wantSteps || gotNow != wantNow:
				t.Errorf("%s, latency %d: steps %d now %d, eager %d and %d", name, lat, gotSteps, gotNow, wantSteps, wantNow)
			}
		}
	}
	if sorted := cases["sorted"]; &issueOrder(sorted)[0] != &sorted[0] {
		t.Error("sorted records were copied")
	}
	if unsorted := cases["unsorted"]; &issueOrder(unsorted)[0] == &unsorted[0] {
		t.Error("unsorted records were reordered in place")
	}
}
