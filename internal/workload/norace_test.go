//go:build !race

package workload_test

// raceEnabled reports whether the race detector is on. It allocates on
// its own, so allocation counts mean nothing under it.
const raceEnabled = false
