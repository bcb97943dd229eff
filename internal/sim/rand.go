package sim

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random source for simulation components. Each
// component derives its own stream from a root seed so that adding or
// removing one component does not perturb the draws seen by another.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a deterministic generator seeded from the two words.
func NewRNG(seed1, seed2 uint64) *RNG {
	return &RNG{src: rand.New(rand.NewPCG(seed1, seed2))}
}

// Derive returns a child RNG whose stream is a pure function of the parent
// seed material and the label, independent of draws made from the parent.
func (r *RNG) Derive(label string) *RNG {
	var h1, h2 uint64 = 0xcbf29ce484222325, 0x9e3779b97f4a7c15
	for i := 0; i < len(label); i++ {
		h1 = (h1 ^ uint64(label[i])) * 0x100000001b3
		h2 = (h2 + uint64(label[i])*0x9e3779b97f4a7c15) ^ (h2 >> 29)
	}
	// Consumes one draw from the parent stream; derivation order is part of
	// the deterministic construction sequence.
	return NewRNG(h1^r.src.Uint64(), h2)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform int in [0, n).
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Int64N returns a uniform int64 in [0, n).
func (r *RNG) Int64N(n int64) int64 { return r.src.Int64N(n) }

// Uint64 returns a uniform uint64.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Dist is a distribution of durations, used for software/network latency
// components.
type Dist interface {
	// Sample draws one duration from the distribution.
	Sample(r *RNG) Duration
	// Mean returns the distribution mean.
	Mean() Duration
}

// Const is a degenerate distribution that always returns V.
type Const struct{ V Duration }

// Sample implements Dist.
func (c Const) Sample(*RNG) Duration { return c.V }

// Mean implements Dist.
func (c Const) Mean() Duration { return c.V }

// LogNormal is a lognormal duration distribution parameterized by its
// median and the sigma of the underlying normal. Lognormal latencies are
// the standard model for software/network service-time jitter.
type LogNormal struct {
	Median Duration // exp(mu)
	Sigma  float64  // sigma of ln(X)
}

// Sample implements Dist.
func (l LogNormal) Sample(r *RNG) Duration {
	if l.Median <= 0 {
		return 0
	}
	x := float64(l.Median) * math.Exp(l.Sigma*r.NormFloat64())
	return Duration(x)
}

// Mean implements Dist.
func (l LogNormal) Mean() Duration {
	return Duration(float64(l.Median) * math.Exp(l.Sigma*l.Sigma/2))
}

// Spiked wraps a base distribution with rare latency spikes: with
// probability P a sample takes Spike instead of (in addition to) the base
// draw. This models tail events such as retransmits, log-structured index
// misses, or background interference, and is what gives the simulated ESSDs
// their realistic P99.9/P50 ratios.
type Spiked struct {
	Base  Dist
	P     float64 // spike probability per sample
	Spike Dist    // extra latency added when a spike occurs
}

// Sample implements Dist.
func (s Spiked) Sample(r *RNG) Duration {
	d := s.Base.Sample(r)
	if s.P > 0 && r.Float64() < s.P {
		d += s.Spike.Sample(r)
	}
	return d
}

// Mean implements Dist.
func (s Spiked) Mean() Duration {
	return s.Base.Mean() + Duration(s.P*float64(s.Spike.Mean()))
}

// Weighted pairs a distribution with a selection weight for Mixture.
type Weighted struct {
	W float64
	D Dist
}

// Mixture draws from one of several component distributions with
// probability proportional to the weights. It models multi-modal service
// times such as TLC flash program latencies (fast LSB vs slow MSB pages).
type Mixture struct {
	Components []Weighted
}

// Sample implements Dist.
func (m Mixture) Sample(r *RNG) Duration {
	var total float64
	for _, c := range m.Components {
		total += c.W
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for _, c := range m.Components {
		if x < c.W {
			return c.D.Sample(r)
		}
		x -= c.W
	}
	return m.Components[len(m.Components)-1].D.Sample(r)
}

// Mean implements Dist.
func (m Mixture) Mean() Duration {
	var total, acc float64
	for _, c := range m.Components {
		total += c.W
		acc += c.W * float64(c.D.Mean())
	}
	if total <= 0 {
		return 0
	}
	return Duration(acc / total)
}
