package sim

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// Events scheduled exactly at t are executed.
func (e *Engine) RunUntil(t Time) {
	for {
		if e.rhead < len(e.ready) {
			// Ready events are always at the current time, which is <= t.
			e.Step()
			continue
		}
		if len(e.heap) == 0 || e.heap[0].at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }
