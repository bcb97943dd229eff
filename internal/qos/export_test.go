package qos

// Rate returns the current fill rate (tokens/s).
func (b *TokenBucket) Rate() float64 { return b.rate }

// RateNow returns the rate (bytes/s) the volume currently sustains: the
// burst ceiling while credits remain, baseline otherwise.
func (c *CreditBucket) RateNow() float64 {
	c.settle(0)
	if c.credits > 0 {
		return c.burst
	}
	return c.baseline
}

// IsolationPolicyNames lists the valid ParseIsolationPolicy inputs.
func IsolationPolicyNames() []string { return []string{"fifo", "wfq", "reservation"} }
