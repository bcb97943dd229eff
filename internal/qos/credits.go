package qos

import "essdsim/internal/sim"

// CreditBucket models burstable cloud volume tiers (AWS gp2-style burst
// credits): the volume earns credits at a baseline rate and may spend them
// above baseline up to a burst ceiling; when the credit balance empties,
// throughput falls to the sustained floor (see SustainedFloor) as spends
// queue behind the ongoing baseline earn. This is the general form of the
// budget machinery behind Observation #4 for the cheaper volume classes.
type CreditBucket struct {
	eng *sim.Engine

	baseline float64 // bytes/s earned continuously
	burst    float64 // bytes/s ceiling while credits remain
	capacity float64 // maximum banked credit, in bytes

	credits  float64
	lastFill sim.Time
	nextFree sim.Time // serialization point for Acquire

	spentAboveBase float64
	exhaustions    uint64
	firstEmpty     sim.Time // virtual time of the first exhaustion; -1 until then
}

// NewCreditBucket returns a bucket with a full credit balance.
func NewCreditBucket(eng *sim.Engine, baseline, burst, capacity float64) *CreditBucket {
	if baseline <= 0 {
		baseline = 1
	}
	if burst < baseline {
		burst = baseline
	}
	if capacity < 0 {
		capacity = 0
	}
	return &CreditBucket{
		eng:        eng,
		baseline:   baseline,
		burst:      burst,
		capacity:   capacity,
		credits:    capacity,
		firstEmpty: -1,
	}
}

// Baseline returns the sustained rate in bytes/s.
func (c *CreditBucket) Baseline() float64 { return c.baseline }

// Burst returns the credit-backed ceiling in bytes/s.
func (c *CreditBucket) Burst() float64 { return c.burst }

// Credits returns the current banked credit in bytes.
func (c *CreditBucket) Credits() float64 {
	c.settle(0)
	return c.credits
}

// PeekCredits returns the balance Credits would report now WITHOUT
// settling the accrual state. Credits() folds the elapsed earn into the
// stored balance, and the extra float additions from out-of-band callers
// (observability probes sampling mid-run) would change the rounding of
// later settles — so probes read through this instead, leaving the real
// arithmetic untouched.
func (c *CreditBucket) PeekCredits() float64 {
	credits := c.credits
	if dt := c.eng.Now().Sub(c.lastFill).Seconds(); dt > 0 {
		credits += dt * c.baseline
		if credits > c.capacity {
			credits = c.capacity
		}
	}
	return credits
}

// Exhaustions counts the times the balance hit zero.
func (c *CreditBucket) Exhaustions() uint64 { return c.exhaustions }

// ExhaustedAt returns the virtual time the balance first hit zero, or -1
// when it never has. Spends are charged at enqueue time, so the timestamp
// marks when the exhausting spend was accepted, not when its bytes drained.
func (c *CreditBucket) ExhaustedAt() sim.Time { return c.firstEmpty }

// SustainedFloor returns the long-run rate (bytes/s) a continuously
// backlogged workload sustains after exhaustion when spends are charged
// just in time (a closed feedback loop). Credits earned while draining let
// a slice of each spend ride the burst rate (each burst byte costs
// 1-baseline/burst credits), so the floor is min(burst, 2×baseline) rather
// than the bare baseline. Open-loop schedules that charge their whole
// backlog at enqueue time earn less between spends and land between
// baseline and this floor.
func (c *CreditBucket) SustainedFloor() float64 {
	if c.capacity <= 0 {
		// Nothing can bank, so earned credits are lost and the floor is
		// the bare baseline.
		return c.baseline
	}
	if f := 2 * c.baseline; f < c.burst {
		return f
	}
	return c.burst
}

// settle accrues earned credits up to now and debits spend bytes consumed
// above baseline.
func (c *CreditBucket) settle(spendAboveBase float64) {
	now := c.eng.Now()
	dt := now.Sub(c.lastFill).Seconds()
	c.lastFill = now
	if dt > 0 {
		c.credits += dt * c.baseline
		if c.credits > c.capacity {
			c.credits = c.capacity
		}
	}
	if spendAboveBase > 0 {
		c.credits -= spendAboveBase
		c.spentAboveBase += spendAboveBase
		if c.credits <= 0 {
			c.credits = 0
			c.exhaustions++
			if c.firstEmpty < 0 {
				c.firstEmpty = now
			}
		}
	}
}

// Acquire serializes n bytes through the credit-limited rate: the bytes
// queue behind all previously acquired bytes, move at the burst rate while
// credits last and at baseline after, and done fires when the last byte
// drains. This is the volume-level throttle point of a burstable tier.
// The spend is sized against the credit state at enqueue time, which
// slightly under-counts credits earned while queued — conservative, and
// negligible at simulation timescales.
func (c *CreditBucket) Acquire(n int64, done func()) {
	now := c.eng.Now()
	start := c.nextFree
	if start < now {
		start = now
	}
	finish := start.Add(c.Spend(n))
	c.nextFree = finish
	c.eng.At(finish, done)
}

// Spend records n bytes of I/O and returns the service time those bytes
// take under the current credit state: bytes covered by credits move at
// the burst rate, the remainder at baseline. Callers schedule their I/O
// completion after the returned duration (plus per-request latency).
func (c *CreditBucket) Spend(n int64) sim.Duration {
	if n <= 0 {
		return 0
	}
	c.settle(0)
	bytes := float64(n)
	var secs float64
	// Portion of the spend that can ride the burst rate: each burst-rate
	// byte consumes (1 - baseline/burst) credits.
	if c.credits > 0 && c.burst > c.baseline {
		creditPerByte := 1 - c.baseline/c.burst
		burstBytes := bytes
		if need := burstBytes * creditPerByte; need > c.credits {
			burstBytes = c.credits / creditPerByte
		}
		secs += burstBytes / c.burst
		c.settle(burstBytes * creditPerByte)
		bytes -= burstBytes
	}
	if bytes > 0 {
		secs += bytes / c.baseline
	}
	return sim.Duration(secs * float64(sim.Second))
}
