package flash

import "essdsim/internal/sim"

// DieQueueLen returns the number of waiting ops on a die.
func (a *Array) DieQueueLen(die int) int { return a.dies[die].QueueLen() }

// DieBusyTime returns the accumulated busy time of a die.
func (a *Array) DieBusyTime(die int) sim.Duration { return a.dies[die].BusyTime() }
