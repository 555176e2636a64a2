// Package mem models the memory system of the simulated machine: a
// last-level cache (cache.go) and a bandwidth-shared DRAM (this file).
//
// The paper's memory performance model (§V) rests on one physical effect:
// when several cores stream misses to DRAM at once, the bus saturates and
// the per-miss stall ω grows. The paper measures this on real hardware with
// a microbenchmark and fits Eq. (6)/(7). This package provides the
// *machine-side ground truth* for the same effect: a fluid
// bandwidth-sharing model in which each memory-active thread registers its
// unconstrained demand and, whenever aggregate demand exceeds the DRAM
// bandwidth, every active thread's memory time stretches by the
// oversubscription ratio. The Ψ/Φ calibration in internal/memmodel re-runs
// the paper's microbenchmark against this model.
//
// Both models take their parameters from a validated machine spec
// (machine.DRAMSpec, machine.LLCSpec) and apply no defaults of their own.
package mem

import (
	"prophet/internal/counters"
	"prophet/internal/machine"
)

// DRAM tracks the set of currently memory-active threads and computes the
// latency stretch they experience. It is used by the simulator engine,
// which serializes all accesses, so no locking is needed.
type DRAM struct {
	spec   machine.DRAMSpec
	demand float64 // sum of registered unconstrained demands (B/cycle)
	active int
	// Stretch memo: the fluid-model curve only depends on the aggregate
	// demand, which changes far less often than Stretch is called (the
	// engine re-evaluates it at every slice start). Keyed on the exact
	// demand value, so the cached result is bit-identical to a
	// recomputation. Bypassed while bwHook is installed, since a hook may
	// legitimately vary between calls.
	stretchDemand float64
	stretchVal    float64
	stretchOK     bool
	// bwHook, when set, rescales the effective bandwidth (fault
	// injection: internal/faults models DRAM degradation through it).
	// No-op by default. The hook applies to both domains.
	bwHook func(base float64) float64

	// Second bandwidth domain (machine.DRAMSpec.SecondDomain). The
	// domains share ω₀ and the knee but accumulate demand separately:
	// traffic in one NUMA-ish domain does not stretch the other. All
	// fields stay zero for single-domain machines, whose code path is
	// byte-identical to the pre-domain model.
	hasDom2     bool
	spec2       machine.DRAMSpec // spec with the second domain's bandwidth
	demand2     float64
	active2     int
	stretchDem2 float64
	stretchVal2 float64
	stretchOK2  bool
}

// Reset (re)initializes the model in place for a fresh run against a
// validated machine spec, installing the spec's second bandwidth domain
// when present. A DRAM must be Reset before use; pooled machines reset
// theirs on every run.
func (d *DRAM) Reset(s machine.DRAMSpec) {
	*d = DRAM{spec: s}
	if sd := s.SecondDomain; sd != nil {
		d.hasDom2 = true
		d.spec2 = s
		d.spec2.BandwidthBytesPerCycle = sd.BandwidthBytesPerCycle
	}
}

// Register adds a thread's unconstrained demand (bytes/cycle) to the active
// set. It returns a handle value to pass to Unregister.
func (d *DRAM) Register(demand float64) float64 {
	if demand < 0 {
		demand = 0
	}
	d.demand += demand
	d.active++
	return demand
}

// Unregister removes a previously registered demand.
func (d *DRAM) Unregister(demand float64) {
	d.demand -= demand
	d.active--
	if d.demand < 0 {
		d.demand = 0
	}
	if d.active < 0 {
		d.active = 0
	}
}

// ActiveDemand returns the current aggregate unconstrained demand in
// bytes/cycle.
func (d *DRAM) ActiveDemand() float64 { return d.demand }

// ActiveThreads returns the number of registered memory-active threads.
func (d *DRAM) ActiveThreads() int { return d.active }

// SetBandwidthHook installs (or, with nil, removes) a bandwidth
// perturbation: Stretch computes contention against hook(configured
// bandwidth) instead of the configured value. The hook runs on the engine
// goroutine and must be deterministic; non-positive returns are ignored.
func (d *DRAM) SetBandwidthHook(hook func(base float64) float64) {
	d.bwHook = hook
}

// Stretch returns the factor by which the memory portion of the active
// threads' work is dilated under the current aggregate demand.
//
// Below Knee·B the bus is effectively uncontended (stretch 1). Between the
// knee and saturation, queueing grows latency linearly; past saturation the
// fluid-sharing limit applies: every byte takes demand/B times longer.
func (d *DRAM) Stretch() float64 {
	if d.bwHook != nil {
		s := d.spec
		if b := d.bwHook(s.BandwidthBytesPerCycle); b > 0 {
			s.BandwidthBytesPerCycle = b
		}
		return StretchAt(s, d.demand)
	}
	if d.stretchOK && d.demand == d.stretchDemand {
		return d.stretchVal
	}
	v := StretchAt(d.spec, d.demand)
	d.stretchDemand, d.stretchVal, d.stretchOK = d.demand, v, true
	return v
}

// HasSecondDomain reports whether a second bandwidth domain is installed.
func (d *DRAM) HasSecondDomain() bool { return d.hasDom2 }

// RegisterDom is Register for a specific bandwidth domain (0 = primary).
// On single-domain machines only domain 0 exists and RegisterDom(0, ·) is
// exactly Register.
func (d *DRAM) RegisterDom(dom int, demand float64) float64 {
	if dom == 0 {
		return d.Register(demand)
	}
	if demand < 0 {
		demand = 0
	}
	d.demand2 += demand
	d.active2++
	return demand
}

// UnregisterDom removes a demand previously registered on the domain.
func (d *DRAM) UnregisterDom(dom int, demand float64) {
	if dom == 0 {
		d.Unregister(demand)
		return
	}
	d.demand2 -= demand
	d.active2--
	if d.demand2 < 0 {
		d.demand2 = 0
	}
	if d.active2 < 0 {
		d.active2 = 0
	}
}

// StretchDom is Stretch for a specific bandwidth domain: each domain's
// stretch depends only on its own aggregate demand.
func (d *DRAM) StretchDom(dom int) float64 {
	if dom == 0 {
		return d.Stretch()
	}
	if d.bwHook != nil {
		s := d.spec2
		if b := d.bwHook(s.BandwidthBytesPerCycle); b > 0 {
			s.BandwidthBytesPerCycle = b
		}
		return StretchAt(s, d.demand2)
	}
	if d.stretchOK2 && d.demand2 == d.stretchDem2 {
		return d.stretchVal2
	}
	v := StretchAt(d.spec2, d.demand2)
	d.stretchDem2, d.stretchVal2, d.stretchOK2 = d.demand2, v, true
	return v
}

// StretchAt computes the stretch the DRAM s applies at an arbitrary
// aggregate demand. Exposed so tests and the ω-model can evaluate the
// curve directly.
//
// The curve is not monotone at saturation: just below B the queueing
// term gives 1 + 0.15·frac² ≈ 1.15, while at B the fluid term gives
// B/B = 1.0, and it only regains 1.15 at 1.15·B. A demand pair that
// straddles B therefore sees the stretch fall — the root cause of the
// occasional TestStretchMonotoneProperty failure. The curve is kept as
// is because every golden output was produced with it.
func StretchAt(s machine.DRAMSpec, demand float64) float64 {
	b := s.BandwidthBytesPerCycle
	knee := s.Knee * b
	switch {
	case demand <= knee:
		return 1
	case demand >= b:
		return demand / b
	default:
		// Smooth ramp from 1 at the knee to 1 at saturation boundary
		// (the fluid term takes over at demand == b where demand/b == 1,
		// so interpolate the queueing penalty up to that point).
		frac := (demand - knee) / (b - knee)
		// Queueing adds up to 15% latency just below saturation,
		// mimicking the measured soft knee of real memory systems.
		return 1 + 0.15*frac*frac
	}
}

// Omega returns the effective per-miss stall in cycles at the given
// aggregate demand: ω = ω₀ · stretch.
func Omega(s machine.DRAMSpec, demand float64) float64 {
	return s.UnloadedLatency * StretchAt(s, demand)
}

// UnconstrainedDemand returns the demand (bytes/cycle) a work segment of
// instrCycles CPU cycles and misses LLC misses generates when the bus is
// idle: misses·LineSize / (instrCycles + misses·ω₀). A lone thread can
// generate at most one line per ω₀ cycles, the pure-streaming limit.
func UnconstrainedDemand(s machine.DRAMSpec, instrCycles float64, misses float64) float64 {
	if misses <= 0 {
		return 0
	}
	t := instrCycles + misses*s.UnloadedLatency
	if t <= 0 {
		return counters.LineSize / s.UnloadedLatency
	}
	return misses * counters.LineSize / t
}
