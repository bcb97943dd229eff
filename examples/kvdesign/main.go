// kvdesign is the paper's future-work case study in miniature: should a
// persistent key-value store on an ESSD still convert random writes into
// sequential writes (LSM / log-structured designs), as RocksDB does for
// local SSDs?
//
// Two real write-path engines from package kv ingest the same put stream:
//
//   - kv.PageStore: update-in-place — every put reads (on cache miss) and
//     rewrites its 4 KiB page at a fixed random location. The pattern
//     local-SSD lore says to avoid.
//   - kv.LSM: leveled log-structured merge — puts buffer in a memtable,
//     flush and compaction stream large sequential segments, paying
//     write amplification for sequentiality.
//
// We measure effective ingest rate on a fresh local SSD, an aged local SSD
// (full, GC active), and the two ESSDs. The local SSD tells the classic
// story: in-place collapses once GC starts, log-structuring wins. The
// ESSDs rewrite it (Observation #3 + Implication #3).
package main

import (
	"fmt"
	"io"
	"os"

	"essdsim"
	"essdsim/kv"
)

const (
	puts      = 200_000
	valueSize = 1024
	clients   = 32
	// keySpace is sized under the page cache so the in-place engine's
	// steady state is pure random page WRITES — the pattern Observation #3
	// is about — rather than cache-miss reads.
	keySpace = 100_000
)

func device(name string, aged bool) (essdsim.Device, error) {
	dev, err := essdsim.NewDevice(name, essdsim.NewEngine(), 31)
	if err != nil {
		return nil, err
	}
	if aged {
		// Fill completely with a randomized layout, then churn random
		// overwrites to pull the FTL into steady-state GC.
		essdsim.Precondition(dev, false)
		essdsim.Run(dev, essdsim.Workload{
			Pattern:    essdsim.RandWrite,
			BlockSize:  64 << 10,
			QueueDepth: 32,
			TotalBytes: dev.Capacity() / 8,
			Seed:       77,
		})
	} else {
		essdsim.Precondition(dev, true)
	}
	return dev, nil
}

func ingest(name string, aged bool, lsm bool) (kv.IngestResult, error) {
	dev, err := device(name, aged)
	if err != nil {
		return kv.IngestResult{}, err
	}
	var engine kv.Engine
	if lsm {
		engine = kv.NewLSM(dev, kv.DefaultLSMConfig())
	} else {
		engine = kv.NewPageStore(dev, kv.DefaultPageStoreConfig(dev))
	}
	return kv.Ingest(dev.Engine(), engine, puts, valueSize, clients, keySpace, 13), nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kvdesign:", err)
		os.Exit(1)
	}
}

// run prints the design study's table and its reading to stdout.
func run(stdout io.Writer) error {
	fmt.Fprintln(stdout, "KV write-path design study: update-in-place vs log-structured")
	fmt.Fprintf(stdout, "%d puts of %d B, %d client streams, real kv engines.\n\n",
		puts, valueSize, clients)
	fmt.Fprintf(stdout, "%-22s %-16s %-20s %-10s %s\n",
		"device", "in-place Kops/s", "log-structured Kops/s", "LSM WA", "winner")
	rows := []struct {
		name string
		aged bool
		desc string
	}{
		{"ssd", false, "SSD (fresh)"},
		{"ssd", true, "SSD (aged, GC active)"},
		{"essd1", false, "ESSD-1 (io2)"},
		{"essd2", false, "ESSD-2 (PL3)"},
	}
	for _, row := range rows {
		ip, err := ingest(row.name, row.aged, false)
		if err != nil {
			return err
		}
		ls, err := ingest(row.name, row.aged, true)
		if err != nil {
			return err
		}
		winner := "log-structured"
		if ip.PutsPerSec() > ls.PutsPerSec() {
			winner = "in-place"
		}
		fmt.Fprintf(stdout, "%-22s %-16.0f %-20.0f %-10.1f %s\n",
			row.desc, ip.PutsPerSec()/1e3, ls.PutsPerSec()/1e3,
			ls.Stats.WriteAmp(), winner)
	}
	fmt.Fprint(stdout, `
Reading the table: on the aged local SSD the LSM wins by ~7x because
device GC punishes random page writes — why RocksDB-style designs exist.
On the ESSDs that punishment is gone (Observation #2/#3); what remains
of the LSM's lead comes from batching (its memtable ack and 256K
segments vs one budget-priced 4K I/O per put), not from sequentiality.
Implication #3: re-derive the design from the volume's budget and
stream limits — the local-SSD GC argument no longer applies.
`)
	return nil
}
