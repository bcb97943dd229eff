package workload

import (
	"math"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
)

// stationDevice serves every request at one sim.Server slot, with service
// times drawn from dist: a single-server FIFO queue behind the arrival
// process.
type stationDevice struct {
	*fakeDevice
	srv  *sim.Server
	dist sim.Dist
	rng  *sim.RNG
}

func newStation(dist sim.Dist) *stationDevice {
	f := newFake(0)
	return &stationDevice{fakeDevice: f, srv: sim.NewServer(f.eng, "station", 1), dist: dist, rng: sim.NewRNG(91, 19)}
}

func (s *stationDevice) Submit(r *blockdev.Request) {
	r.Issued = s.eng.Now()
	s.srv.Visit(s.dist.Sample(s.rng), func() { r.OnComplete(r, s.eng.Now()) })
}

// expDist is an exponential service-time distribution.
type expDist struct{ mean sim.Duration }

func (e expDist) Sample(r *sim.RNG) sim.Duration {
	return sim.Duration(-math.Log(1-r.Float64()) * float64(e.mean))
}
func (e expDist) Mean() sim.Duration { return e.mean }

// meanSojourn drives a station with 200k Poisson arrivals at utilization
// 0.5 and returns the mean time from arrival to completion.
func meanSojourn(t *testing.T, service sim.Dist) (got, mean float64) {
	t.Helper()
	const lambda = 5000.0 // arrivals/s; service mean 100 µs gives ρ = 0.5
	dev := newStation(service)
	res := RunOpen(dev, OpenSpec{
		Pattern: RandRead, BlockSize: 4096,
		RatePerSec: lambda, Arrival: Poisson, Count: 200_000, Seed: 7,
	})
	if res.Ops != 200_000 {
		t.Fatalf("ops = %d", res.Ops)
	}
	return res.Lat.Mean().Seconds(), service.Mean().Seconds()
}

// TestOpenLoopMM1Oracle checks the Poisson arrival source against the
// M/M/1 mean sojourn time 1/(μ−λ) at ρ = 0.5.
func TestOpenLoopMM1Oracle(t *testing.T) {
	got, mean := meanSojourn(t, expDist{100 * sim.Microsecond})
	want := 1 / (1/mean - 5000)
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Fatalf("M/M/1 mean sojourn %.1f µs, want %.1f µs (off by %.1f%%)", got*1e6, want*1e6, rel*100)
	}
	t.Logf("M/M/1 mean sojourn %.2f µs, oracle %.2f µs", got*1e6, want*1e6)
}

// TestOpenLoopMD1Oracle checks the Poisson arrival source against the
// M/D/1 mean sojourn time D + ρD/(2(1−ρ)) at ρ = 0.5.
func TestOpenLoopMD1Oracle(t *testing.T) {
	got, d := meanSojourn(t, sim.Const{V: 100 * sim.Microsecond})
	rho := 5000 * d
	want := d + rho*d/(2*(1-rho))
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Fatalf("M/D/1 mean sojourn %.1f µs, want %.1f µs (off by %.1f%%)", got*1e6, want*1e6, rel*100)
	}
	t.Logf("M/D/1 mean sojourn %.2f µs, oracle %.2f µs", got*1e6, want*1e6)
}
