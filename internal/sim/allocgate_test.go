//go:build !race

package sim

import (
	"testing"

	"prophet/internal/machine"
)

// TestSimStepZeroAlloc is the allocation gate for the engine hot path:
// with observability disabled, processing an event (work slice start/end,
// preemption, heap push/pop, DRAM register/unregister) must not allocate.
// Rather than asserting an absolute number — goroutine stacks and spawn
// closures legitimately allocate per thread — it runs the same workload
// shape at two very different step counts and requires the totals to
// match: any per-step allocation would show up thousands of times over.
//
// Excluded under the race detector, which instruments allocations and
// channel operations enough to perturb the count.
func TestSimStepZeroAlloc(t *testing.T) {
	cfg := Config{Spec: shapeSpec(4, 10_000, 0)}
	run := func(steps int) {
		_, _, err := RunOpt(cfg, RunOpts{}, func(m *Thread) {
			ws := make([]*Thread, 0, 8)
			for k := 0; k < 8; k++ {
				ws = append(ws, m.Spawn(func(w *Thread) {
					for i := 0; i < steps; i++ {
						w.Work(5_000)
					}
				}))
			}
			for _, w := range ws {
				m.Join(w)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run(16) // warm the machine pool to steady state
	}
	small := testing.AllocsPerRun(10, func() { run(16) })
	large := testing.AllocsPerRun(10, func() { run(4096) })
	// 4080 extra steps × 8 threads ≈ 65k extra events. The slack absorbs
	// incidental noise (a GC clearing the machine pool mid-measurement);
	// even a single alloc per event would overshoot it by three orders
	// of magnitude.
	if large > small+64 {
		t.Errorf("sim step path allocates: %.1f allocs at 16 steps vs %.1f at 4096 steps", small, large)
	}
}

// TestSimSpecStepZeroAlloc is the same gate for spec-built machines: the
// immutable-spec/pooled-instance split must keep the hot path at the same
// allocs/op — a pooled machine reset against a spec (including an
// asymmetric one, which takes the scaled slice path) derives speeds and
// domains into retained storage, never fresh allocations.
func TestSimSpecStepZeroAlloc(t *testing.T) {
	spec := &machine.Spec{
		Name:       "t-allocgate",
		CoreGroups: []machine.CoreGroup{{Count: 2, Speed: 1}, {Count: 2, Speed: 0.5}},
		Quantum:    10_000,
		// ContextSwitch 0 in a spec is literal (free switches), matching
		// the TestSimStepZeroAlloc machine.
		ContextSwitch: 0,
		LLC:           machine.LLCSpec{SizeBytes: 12 << 20, Ways: 16, LineBytes: 64},
		DRAM:          machine.DRAMSpec{UnloadedLatency: 40, BandwidthBytesPerCycle: 8, Knee: 0.75},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: spec}
	run := func(steps int) {
		_, _, err := RunOpt(cfg, RunOpts{}, func(m *Thread) {
			ws := make([]*Thread, 0, 8)
			for k := 0; k < 8; k++ {
				ws = append(ws, m.Spawn(func(w *Thread) {
					for i := 0; i < steps; i++ {
						w.WorkMem(5_000, 20)
					}
				}))
			}
			for _, w := range ws {
				m.Join(w)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run(16)
	}
	small := testing.AllocsPerRun(10, func() { run(16) })
	large := testing.AllocsPerRun(10, func() { run(4096) })
	if large > small+64 {
		t.Errorf("spec-machine step path allocates: %.1f allocs at 16 steps vs %.1f at 4096 steps", small, large)
	}
}
