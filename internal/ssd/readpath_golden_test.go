package ssd

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the read-path golden files from the current tree")

// readScenario is one targeted drive of the read path: a device, its
// preconditioning, and a closed loop of generated requests.
type readScenario struct {
	name  string
	cfg   func() Config
	fill  float64 // precondition fill; 0 for none
	rand  bool    // randomized precondition layout
	qd    int
	count int
	gen   func() reqGen // a fresh generator per run
}

// reqGen returns request i's op, offset and size.
type reqGen func(i int, rng *sim.RNG, capacity int64) (blockdev.Op, int64, int64)

// streamGen returns a generator of interleaved sequential read streams
// spaced gap bytes apart: request i goes to stream order[i%len(order)]
// with a size from sizes.
func streamGen(order []int, gap int64, sizes []int64) reqGen {
	next := make([]int64, slices.Max(order)+1)
	for k := range next {
		next[k] = int64(k) * gap
	}
	return func(i int, _ *sim.RNG, capacity int64) (blockdev.Op, int64, int64) {
		k := order[i%len(order)]
		size := sizes[(i/len(order))%len(sizes)]
		if next[k]+size > capacity {
			next[k] = int64(k) * gap
		}
		off := next[k]
		next[k] += size
		return blockdev.Read, off, size
	}
}

// tinyConfig is a 4 MiB SSD of two dies and 256 KiB superblocks, so a
// randomized fill scatters a few hundred flash pages and reads of
// non-adjacent LPNs often share one.
func tinyConfig() Config {
	cfg := DefaultConfig(4 << 20)
	cfg.Flash.Channels = 1
	cfg.Flash.PagesPerBlock = 4
	cfg.FTL.WriteBufferBytes = 256 << 10
	cfg.ReadCachePages = 128
	return cfg
}

var readScenarios = []readScenario{
	{
		// A cache smaller than one readahead: eviction runs into pinned
		// in-flight entries, rotates them and stops early.
		name: "evict_inflight",
		cfg: func() Config {
			cfg := DefaultConfig(256 << 20)
			cfg.ReadCachePages = 40
			return cfg
		},
		fill: 1, qd: 6, count: 900,
		gen: func() reqGen {
			return streamGen([]int{0, 1, 2}, 64<<20, []int64{4 << 10, 16 << 10, 8 << 10, 4 << 10, 64 << 10})
		},
	},
	{
		// Two read streams with writes and trims landing just ahead of
		// them, in ranges their readaheads cached or have in flight.
		name: "write_trim_prefetched",
		cfg: func() Config {
			cfg := DefaultConfig(256 << 20)
			cfg.ReadCachePages = 256
			return cfg
		},
		fill: 1, qd: 8, count: 900,
		gen: func() reqGen {
			reads := streamGen([]int{0, 1}, 100<<20, []int64{4 << 10, 8 << 10, 4 << 10, 32 << 10})
			var last [2]int64
			return func(i int, rng *sim.RNG, capacity int64) (blockdev.Op, int64, int64) {
				k := i % 2
				switch {
				case i%5 == 4:
					return blockdev.Write, last[k] + (2+rng.Int64N(30))*4096, (1 + rng.Int64N(4)) * 4096
				case i%7 == 6:
					return blockdev.Trim, last[k] + (4+rng.Int64N(40))*4096, (1 + rng.Int64N(8)) * 4096
				case i%97 == 96:
					return blockdev.Flush, 0, 0
				}
				op, off, size := reads(i, rng, capacity)
				last[k] = off + size
				return op, off, size
			}
		},
	},
	{
		// Six interleaved streams on a four-entry stream table: streams 0
		// and 1 recur often enough to keep their entries and read ahead,
		// while 2-5 keep replacing each other's.
		name: "streams_overflow",
		cfg: func() Config {
			cfg := DefaultConfig(256 << 20)
			cfg.StreamTableSize = 4
			cfg.ReadCachePages = 512
			return cfg
		},
		fill: 1, qd: 4, count: 900,
		gen: func() reqGen {
			return streamGen([]int{0, 2, 1, 3, 0, 4, 1, 5}, 40<<20, []int64{4 << 10, 4 << 10, 16 << 10, 128 << 10, 8 << 10})
		},
	},
	{
		// Random reads over a randomized layout of a tiny device, mixed
		// with short sequential runs and a few writes, so one page list
		// holds pages shared by non-adjacent LPNs and buffered LPNs.
		name: "shared_pages",
		cfg:  tinyConfig,
		fill: 1, rand: true, qd: 8, count: 900,
		gen: func() reqGen {
			var seq int64
			return func(i int, rng *sim.RNG, capacity int64) (blockdev.Op, int64, int64) {
				pages := capacity / 4096
				switch {
				case i%11 == 10:
					return blockdev.Write, rng.Int64N(pages-4) * 4096, (1 + rng.Int64N(4)) * 4096
				case (i/40)%2 == 1:
					size := (1 + rng.Int64N(4)) * 4096
					if seq+size > capacity {
						seq = 0
					}
					off := seq
					seq += size
					return blockdev.Read, off, size
				}
				size := (1 + rng.Int64N(16)) * 4096
				return blockdev.Read, rng.Int64N(pages-size/4096+1) * 4096, size
			}
		},
	},
	{
		// The shapes Fig 2 runs: 4 KiB sequential reads at QD 16, then
		// 128 KiB at QD 16, on the default cache.
		name: "seq_qd16",
		cfg:  func() Config { return DefaultConfig(256 << 20) },
		fill: 1, qd: 16, count: 900,
		gen: func() reqGen {
			small := streamGen([]int{0}, 0, []int64{4 << 10})
			large := streamGen([]int{0}, 0, []int64{128 << 10})
			return func(i int, rng *sim.RNG, capacity int64) (blockdev.Op, int64, int64) {
				if i < 600 {
					return small(i, rng, capacity)
				}
				op, off, size := large(i, rng, capacity)
				return op, off + 64<<20, size
			}
		},
	},
}

// run drives the scenario and renders every request's completion, in
// completion order, then the device's counters.
func (sc readScenario) run() string {
	eng := sim.NewEngine()
	s := New(eng, sc.cfg(), sim.NewRNG(21, 13))
	defer s.ReleaseResources()
	if sc.fill > 0 {
		s.Precondition(sc.fill, sc.rand)
	}
	rng, gen := sim.NewRNG(22, 14), sc.gen()
	var b strings.Builder
	next, inflight := 0, 0
	var submit func()
	submit = func() {
		for inflight < sc.qd && next < sc.count {
			i := next
			next++
			inflight++
			op, off, size := gen(i, rng, s.Capacity())
			s.Submit(&blockdev.Request{
				Op: op, Offset: off, Size: size,
				OnComplete: func(r *blockdev.Request, at sim.Time) {
					fmt.Fprintf(&b, "%d %v %d %d %d %d\n", i, r.Op, r.Offset, r.Size, r.Issued, at)
					inflight--
					submit()
				},
			})
		}
	}
	submit()
	eng.Run()
	fmt.Fprintf(&b, "ssd %+v\nftl %+v\nflash %+v\nend %d\n",
		s.Counters(), s.FTL().Counters(), s.FlashCounters(), eng.Now())
	return b.String()
}

// TestReadPathGolden pins per-request completion times and the device
// counters of targeted read-path scenarios: eviction while readaheads are
// in flight, writes and trims into cached ranges, more streams than the
// stream table holds, and page lists whose LPNs share flash pages. The
// goldens were recorded from the Go-map read cache, with FTL.ReadList
// issuing page reads in first-seen order: in Go's randomized map order,
// which it used before, three of these scenarios came out differently from
// run to run. Rewrite them with -update only for a deliberate change of
// behaviour.
func TestReadPathGolden(t *testing.T) {
	for _, sc := range readScenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := sc.run()
			path := filepath.Join("testdata", "readpath_"+sc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("output has %d lines, golden %d", len(gl), len(wl))
			}
		})
	}
}
