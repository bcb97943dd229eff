package main

import "fmt"

// pinned holds, per workload, the digest of the suites' CSV and table
// output at defaultSeed. A change meant only to speed the simulator up
// must leave these byte-identical.
var pinned = map[string]string{
	"paper-quick": "370b869d5e7a22d9ba3da725",
	"fleet":       "98ed878d00e12539a63735b8",
	"isolation":   "fe7e4effef41c4eb58effb87",
	"kv-mix":      "1c299efc8972b7a8206ace93",
}

// checkPinned compares a suite-output digest with the pinned one; only the
// default seed is pinned.
func checkPinned(workload string, seed uint64, got string) error {
	want, ok := pinned[workload]
	if seed != defaultSeed || !ok || want == got {
		return nil
	}
	return fmt.Errorf("suite output digest %s at seed %d, pinned %s", got, seed, want)
}
