package sim_test

import (
	"testing"

	"prophet/internal/machine"
	"prophet/internal/sim"
	"prophet/internal/sim/simtest"
)

// TestSpecReproducesLegacyFlatConfigs pins the timing of the flat
// Cores/Quantum/ContextSwitch configurations sim.Config carried before
// the machine spec became its only description. The makespans and
// stats were recorded from those flat configs; each case's spec is the
// equivalent homogeneous, single-domain machine and must reproduce them
// exactly, pooled machine reuse included.
func TestSpecReproducesLegacyFlatConfigs(t *testing.T) {
	cases := []struct {
		name    string
		cfg     sim.Config
		threads int
		end     int64
		stats   sim.Stats
	}{
		// Config{}: every knob defaulted, the paper machine.
		{"zero-config", sim.Config{}, 16, 1842118,
			sim.Stats{Instructions: 1.312e7, Misses: 192000, BusyCycles: 21181804, Preemptions: 1, Events: 1926}},
		{"westmere12", sim.Config{Spec: machine.Default()}, 16, 1842118,
			sim.Stats{Instructions: 1.312e7, Misses: 192000, BusyCycles: 21181804, Preemptions: 1, Events: 1926}},
		// {Cores: 4, Quantum: 10_000, ContextSwitch: -1}.
		{"4-cores-q10k-free-switch", simtest.Machine(4), 16, 5208000,
			sim.Stats{Instructions: 1.312e7, Misses: 192000, BusyCycles: 20800000, Preemptions: 1916, Events: 3200}},
		// {Cores: 8, DRAM: mem.DefaultDRAM()}.
		{"8-cores", sim.Config{Spec: simtest.Spec(8, 50_000, 1_000)}, 16, 2695500,
			sim.Stats{Instructions: 1.312e7, Misses: 192000, BusyCycles: 20800000, Preemptions: 1, Events: 1930}},
		// {Cores: 3, DRAM: mem.DefaultDRAM()}.
		{"3-cores", sim.Config{Spec: simtest.Spec(3, 50_000, 1_000)}, 4, 1806000,
			sim.Stats{Instructions: 3.28e6, Misses: 48000, BusyCycles: 5200000, Preemptions: 27, Events: 468}},
	}
	// Two rounds: the second runs every case on a pooled machine last
	// reset for a different shape.
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			end, st, err := sim.RunOpt(c.cfg, sim.RunOpts{}, sim.MemWorkload(c.threads))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if int64(end) != c.end || st != c.stats {
				t.Errorf("%s (round %d): got (%d, %+v), want (%d, %+v)", c.name, round, end, st, c.end, c.stats)
			}
		}
	}
}
