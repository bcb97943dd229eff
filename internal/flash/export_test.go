package flash

// DieQueueLen returns the number of waiting ops on a die.
func (a *Array) DieQueueLen(die int) int { return a.dies[die].QueueLen() }
