package qos

import (
	"essdsim/internal/sim"
)

// TokenBucket is a classic token bucket in virtual time with FIFO waiters.
// Tokens accrue continuously at Rate up to Burst; Take either debits
// immediately or queues the caller until enough tokens accrue.
//
// A bytes/s bucket at the provisioned budget is what makes the ESSD's
// maximum bandwidth deterministic across access patterns (Observation #4).
type TokenBucket struct {
	eng   *sim.Engine
	rate  float64 // tokens per second
	burst float64 // bucket capacity

	tokens   float64
	lastFill sim.Time
	waiters  []tbWaiter // FIFO ring: live waiters are waiters[whead:]
	whead    int
	draining bool
	drainFn  func() // reusable drain event, allocated once per bucket

	stalled sim.Duration
}

type tbWaiter struct {
	n     float64
	since sim.Time
	done  func()
}

// noop is the shared no-op completion for nil-done Takes.
func noop() {}

// NewTokenBucket returns a bucket that starts full.
func NewTokenBucket(eng *sim.Engine, rate, burst float64) *TokenBucket {
	if rate <= 0 {
		rate = 1
	}
	if burst < 1 {
		burst = 1
	}
	b := &TokenBucket{eng: eng, rate: rate, burst: burst, tokens: burst}
	b.drainFn = b.drain
	return b
}

// SetRate changes the fill rate — the flow limiter's lever.
func (b *TokenBucket) SetRate(rate float64) {
	if rate <= 0 {
		rate = 1
	}
	b.refill()
	b.rate = rate
	b.kick()
}

// StallTime returns the cumulative time requests spent waiting for tokens.
func (b *TokenBucket) StallTime() sim.Duration { return b.stalled }

func (b *TokenBucket) refill() {
	now := b.eng.Now()
	dt := now.Sub(b.lastFill).Seconds()
	if dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.lastFill = now
}

// Take requests n tokens and calls done when they are granted. Grants are
// strictly FIFO, so a large request blocks later small ones (matching a
// per-volume throttle point). Requests larger than the burst are allowed:
// the bucket simply goes as negative as needed once the waiter reaches the
// head, preserving the long-run rate.
func (b *TokenBucket) Take(n float64, done func()) {
	if done == nil {
		done = noop
	}
	if n <= 0 {
		done()
		return
	}
	b.refill()
	if b.whead == len(b.waiters) && b.tokens >= n {
		b.tokens -= n
		done()
		return
	}
	b.waiters = append(b.waiters, tbWaiter{n: n, since: b.eng.Now(), done: done})
	b.kick()
}

// grantThreshold returns the token level at which a request of size n is
// granted: n itself, or the full bucket for requests larger than the burst
// (which then drive the balance negative, preserving the long-run rate).
func (b *TokenBucket) grantThreshold(n float64) float64 {
	if n > b.burst {
		return b.burst
	}
	return n
}

// kick schedules the next waiter's grant time if not already scheduled.
// The drain event is the reusable drainFn closure, so a grant cycle costs
// no allocation regardless of queue depth.
func (b *TokenBucket) kick() {
	if b.draining || b.whead >= len(b.waiters) {
		return
	}
	b.refill()
	need := b.grantThreshold(b.waiters[b.whead].n) - b.tokens
	var wait sim.Duration
	if need > 0 {
		wait = sim.Duration(need / b.rate * float64(sim.Second))
		if wait < 1 {
			wait = 1
		}
	}
	b.draining = true
	b.eng.Schedule(wait, b.drainFn)
}

// drain grants every waiter the accrued tokens cover, in FIFO order. The
// ring-head pop is O(1); the drained prefix is reclaimed whenever the queue
// empties, bounding memory to the high-water mark of concurrent waiters.
func (b *TokenBucket) drain() {
	b.draining = false
	b.refill()
	for b.whead < len(b.waiters) {
		w := b.waiters[b.whead]
		if b.tokens < b.grantThreshold(w.n) {
			break
		}
		b.tokens -= w.n // may go negative for oversized requests
		b.stalled += b.eng.Now().Sub(w.since)
		b.waiters[b.whead] = tbWaiter{}
		b.whead++
		if b.whead == len(b.waiters) {
			b.waiters = b.waiters[:0]
			b.whead = 0
		}
		w.done()
	}
	b.kick()
}

// FlowLimiter models the provider policy that throttles a volume's write
// budget once the backend's cleaning debt exceeds its spare capacity —
// the mechanism behind ESSD-1's delayed throughput cliff in Figure 3.
// Once engaged it is sticky for the life of the volume session, matching
// the stable post-knee floor the paper measured.
type FlowLimiter struct {
	// DebtThreshold is the cleaning debt (bytes) that triggers throttling.
	DebtThreshold int64
	// ThrottledRate is the write budget (bytes/s) applied when engaged.
	ThrottledRate float64

	engaged   bool
	engagedAt sim.Time
}

// Engaged reports whether the limiter has fired.
func (l *FlowLimiter) Engaged() bool { return l.engaged }

// EngagedAt returns when the limiter fired (zero if it has not).
func (l *FlowLimiter) EngagedAt() sim.Time { return l.engagedAt }

// Observe feeds the current cleaning debt; when the debt crosses the
// threshold the limiter engages, clamps the bucket, and stays engaged.
// A zero or negative threshold disables the limiter entirely.
func (l *FlowLimiter) Observe(now sim.Time, debt int64, bucket *TokenBucket) {
	if l.engaged || l.DebtThreshold <= 0 {
		return
	}
	if debt >= l.DebtThreshold {
		l.engaged = true
		l.engagedAt = now
		bucket.SetRate(l.ThrottledRate)
	}
}
