package mem

import (
	"math"
	"testing"
	"testing/quick"

	"prophet/internal/counters"
	"prophet/internal/machine"
)

func TestStretchRegions(t *testing.T) {
	cfg := machine.Default().DRAM // B=8, knee at 6
	if got := StretchAt(cfg, 0); got != 1 {
		t.Errorf("stretch(0) = %g, want 1", got)
	}
	if got := StretchAt(cfg, 5.9); got != 1 {
		t.Errorf("stretch below knee = %g, want 1", got)
	}
	mid := StretchAt(cfg, 7)
	if mid <= 1 || mid >= 1.2 {
		t.Errorf("stretch in knee region = %g, want (1, 1.2)", mid)
	}
	if got := StretchAt(cfg, 16); got != 2 {
		t.Errorf("stretch at 2x saturation = %g, want 2", got)
	}
}

// Property: stretch is monotone non-decreasing in demand and >= 1.
func TestStretchMonotoneProperty(t *testing.T) {
	cfg := machine.Default().DRAM
	f := func(a, b uint16) bool {
		da := float64(a) / 1000
		db := float64(b) / 1000
		if da > db {
			da, db = db, da
		}
		sa, sb := StretchAt(cfg, da), StretchAt(cfg, db)
		return sa >= 1 && sb >= sa-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterUnregisterBalance(t *testing.T) {
	var d DRAM
	d.Reset(machine.Default().DRAM)
	h1 := d.Register(1.5)
	h2 := d.Register(2.0)
	if d.ActiveThreads() != 2 || math.Abs(d.ActiveDemand()-3.5) > 1e-12 {
		t.Fatalf("after register: threads=%d demand=%g", d.ActiveThreads(), d.ActiveDemand())
	}
	d.Unregister(h1)
	d.Unregister(h2)
	if d.ActiveThreads() != 0 || d.ActiveDemand() != 0 {
		t.Fatalf("after unregister: threads=%d demand=%g", d.ActiveThreads(), d.ActiveDemand())
	}
	// Extra unregisters clamp at zero instead of going negative.
	d.Unregister(1)
	if d.ActiveDemand() != 0 || d.ActiveThreads() != 0 {
		t.Fatal("unregister underflow not clamped")
	}
}

func TestUnconstrainedDemand(t *testing.T) {
	cfg := machine.Default().DRAM
	// Pure streaming: instr=0 => demand equals the single-thread
	// bandwidth, one 64-byte line per ω₀ = 40 cycles.
	if got := UnconstrainedDemand(cfg, 0, 1000); math.Abs(got-64.0/40) > 1e-12 {
		t.Errorf("pure stream demand = %g, want 1.6", got)
	}
	// No misses: zero demand.
	if got := UnconstrainedDemand(cfg, 1e6, 0); got != 0 {
		t.Errorf("no-miss demand = %g, want 0", got)
	}
	// Compute-heavy: demand shrinks as instruction work grows.
	d1 := UnconstrainedDemand(cfg, 1000, 10)
	d2 := UnconstrainedDemand(cfg, 100000, 10)
	if !(d2 < d1 && d1 > 0) {
		t.Errorf("demand not decreasing with compute: %g vs %g", d1, d2)
	}
}

func TestOmegaGrowsPastSaturation(t *testing.T) {
	cfg := machine.Default().DRAM
	if got := Omega(cfg, 0); got != cfg.UnloadedLatency {
		t.Errorf("omega unloaded = %g, want %g", got, cfg.UnloadedLatency)
	}
	if got := Omega(cfg, 3*cfg.BandwidthBytesPerCycle); math.Abs(got-3*cfg.UnloadedLatency) > 1e-9 {
		t.Errorf("omega at 3x = %g, want %g", got, 3*cfg.UnloadedLatency)
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(machine.LLCSpec{SizeBytes: 1 << 12, Ways: 2, LineBytes: 64}) // 4KB, 32 sets
	if c.Sets() != 32 {
		t.Fatalf("sets = %d, want 32", c.Sets())
	}
	if c.Access(0) {
		t.Error("first access should miss")
	}
	if !c.Access(0) {
		t.Error("second access to same line should hit")
	}
	if !c.Access(63) {
		t.Error("same line (byte 63) should hit")
	}
	if c.Access(64) {
		t.Error("next line should miss")
	}
	acc, miss := c.Stats()
	if acc != 4 || miss != 2 {
		t.Fatalf("stats = (%d, %d), want (4, 2)", acc, miss)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache with 1 set: capacity 2 lines.
	c := NewCache(machine.LLCSpec{SizeBytes: 128, Ways: 2, LineBytes: 64})
	if c.Sets() != 1 {
		t.Fatalf("sets = %d, want 1", c.Sets())
	}
	c.Access(0)   // miss, load A
	c.Access(64)  // miss, load B
	c.Access(0)   // hit A (B is now LRU)
	c.Access(128) // miss, evicts B
	if !c.Access(0) {
		t.Error("A should still be resident")
	}
	if c.Access(64) {
		t.Error("B should have been evicted (LRU)")
	}
}

func TestStreamMissRateRegimes(t *testing.T) {
	cfg := machine.LLCSpec{SizeBytes: 1 << 16, Ways: 8, LineBytes: 64} // 64 KB
	// Footprint fits: steady-state sweep should hit almost always.
	small := StreamMissRate(cfg, 1<<14, 8)
	if small > 0.01 {
		t.Errorf("in-cache sweep miss rate = %g, want ~0", small)
	}
	// Footprint 16x the cache: every line access misses; with stride 8
	// there are 8 accesses per 64-byte line, so miss rate ~ 1/8.
	big := StreamMissRate(cfg, 1<<20, 8)
	if math.Abs(big-0.125) > 0.02 {
		t.Errorf("streaming miss rate = %g, want ~0.125", big)
	}
	// Stride >= line size: every access a new line, miss rate ~ 1.
	stride64 := StreamMissRate(cfg, 1<<20, 64)
	if stride64 < 0.95 {
		t.Errorf("line-stride miss rate = %g, want ~1", stride64)
	}
}

func TestStreamMissRateDegenerate(t *testing.T) {
	if got := StreamMissRate(machine.Default().LLC, 0, 8); got != 0 {
		t.Errorf("zero footprint miss rate = %g, want 0", got)
	}
	// Non-positive stride defaults rather than looping forever.
	if got := StreamMissRate(machine.LLCSpec{SizeBytes: 1 << 12, Ways: 2, LineBytes: 64}, 1<<10, 0); got < 0 {
		t.Errorf("negative miss rate %g", got)
	}
}

func TestLineSizeConstantConsistent(t *testing.T) {
	if counters.LineSize != 64 {
		t.Fatalf("LineSize = %d; DRAM/cache models assume 64", counters.LineSize)
	}
}

// TestStretchDropsAtSaturation pins the curve's one non-monotone step,
// documented on StretchAt: just below B the queueing term is near its
// 1.15 cap, at B the fluid term restarts from 1.0.
func TestStretchDropsAtSaturation(t *testing.T) {
	cfg := machine.Default().DRAM // B = 8
	below, at := StretchAt(cfg, 7.999), StretchAt(cfg, 8)
	if !(below > 1.14 && at == 1) {
		t.Errorf("stretch just below / at saturation = %g / %g, want ~1.15 / 1", below, at)
	}
}
