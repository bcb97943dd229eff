package kv

import "testing"

// ingestSmoke runs the canonical fixed-seed smoke ingest used by the
// determinism test below: modest enough to stay fast, big enough to
// force flushes and compactions on the LSM path.
func ingestSmoke(t *testing.T, engine string) IngestResult {
	t.Helper()
	eng, dev := newDev(t, "essd2")
	var e Engine
	switch engine {
	case "lsm":
		cfg := DefaultLSMConfig()
		cfg.MemtableBytes = 64 << 10
		cfg.L0CompactTrigger = 2
		e = NewLSM(dev, cfg)
	case "pagestore":
		e = NewPageStore(dev, DefaultPageStoreConfig(dev))
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	return Ingest(eng, e, 800, 1024, 8, 1<<14, 42)
}

// TestIngestDeterministicSmoke pins the bench harness itself: a
// fixed-seed ingest must populate every measurement field, repeat
// byte-identically (same virtual elapsed time, same device-byte
// accounting — the whole IngestResult), and leave both engines
// satisfying their structural invariants.
func TestIngestDeterministicSmoke(t *testing.T) {
	for _, engine := range []string{"lsm", "pagestore"} {
		t.Run(engine, func(t *testing.T) {
			res := ingestSmoke(t, engine)
			if res.Engine == "" {
				t.Fatalf("unlabeled result %+v", res)
			}
			if res.Puts != 800 || res.UserBytes != 800*1024 {
				t.Fatalf("conservation: %+v", res)
			}
			if res.Elapsed <= 0 {
				t.Fatalf("no virtual time elapsed: %v", res.Elapsed)
			}
			if res.PutsPerSec() <= 0 {
				t.Fatalf("rate not populated: %.1f puts/s", res.PutsPerSec())
			}
			if res.Stats.DeviceWriteBytes < res.UserBytes {
				t.Fatalf("device wrote %d bytes for %d user bytes",
					res.Stats.DeviceWriteBytes, res.UserBytes)
			}
			if wa := res.Stats.WriteAmp(); wa < 1 {
				t.Fatalf("write amplification %.2f < 1", wa)
			}
			// Same seed, same engine: the virtual run must repeat exactly.
			if again := ingestSmoke(t, engine); again != res {
				t.Fatalf("fixed-seed ingest not deterministic:\n first %+v\nsecond %+v", res, again)
			}
		})
	}
}

// TestIngestLeavesEnginesConsistent re-runs the smoke ingest with direct
// access to the engines and checks the structural invariants the
// IngestResult cannot see: the LSM's memtable fully drained with all
// data accounted to some level, and the page store's cache bounded by
// its configured capacity.
func TestIngestLeavesEnginesConsistent(t *testing.T) {
	t.Run("lsm", func(t *testing.T) {
		eng, dev := newDev(t, "essd2")
		cfg := DefaultLSMConfig()
		cfg.MemtableBytes = 64 << 10
		cfg.L0CompactTrigger = 2
		l := NewLSM(dev, cfg)
		res := Ingest(eng, l, 800, 1024, 8, 1<<14, 42)
		if l.memUsed != 0 {
			t.Fatalf("memtable holds %d bytes after barrier", l.memUsed)
		}
		var total int64
		for _, b := range l.LevelBytes() {
			if b < 0 {
				t.Fatalf("negative level bytes: %v", l.LevelBytes())
			}
			total += b
		}
		if total < res.UserBytes {
			t.Fatalf("levels hold %d bytes, ingested %d", total, res.UserBytes)
		}
		if res.Stats.Flushes == 0 || res.Stats.Compactions == 0 {
			t.Fatalf("smoke ingest exercised no background work: %+v", res.Stats)
		}
	})
	t.Run("pagestore", func(t *testing.T) {
		eng, dev := newDev(t, "essd2")
		cfg := DefaultPageStoreConfig(dev)
		cfg.CachePages = 32
		p := NewPageStore(dev, cfg)
		res := Ingest(eng, p, 800, 1024, 8, 1<<14, 42)
		if len(p.cache) > cfg.CachePages {
			t.Fatalf("cache grew to %d entries (cap %d)", len(p.cache), cfg.CachePages)
		}
		if res.Stats.DeviceWrites != res.Puts {
			t.Fatalf("page store wrote %d pages for %d puts", res.Stats.DeviceWrites, res.Puts)
		}
		if res.Stats.DeviceReads > res.Puts {
			t.Fatalf("page store read %d pages for %d puts", res.Stats.DeviceReads, res.Puts)
		}
	})
}
