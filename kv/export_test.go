package kv

func newRing(base, size, blockSize int64) *ringAllocator {
	return &ringAllocator{base: base, size: size, bs: blockSize}
}

// LevelBytes returns the accumulated bytes of each level.
func (l *LSM) LevelBytes() []int64 {
	out := make([]int64, len(l.levels))
	for i, lv := range l.levels {
		out[i] = lv.bytes
	}
	return out
}
