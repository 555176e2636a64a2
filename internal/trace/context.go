package trace

import (
	"time"

	"prophet/internal/clock"
	"prophet/internal/counters"
	"prophet/internal/machine"
	"prophet/internal/tree"
)

// Context is the interface annotated serial programs are written against.
// It is the paper's Table II plus Compute, the cost-model hook that stands
// in for real computation when a program runs on the simulated machine
// (the substitution for profiling real binaries with Pin).
type Context interface {
	// SecBegin / SecEnd bracket a parallel section (PAR_SEC_*).
	SecBegin(name string)
	SecEnd(nowait bool)
	// TaskBegin / TaskEnd bracket a parallel task (PAR_TASK_*).
	TaskBegin(name string)
	TaskEnd()
	// LockBegin / LockEnd bracket computation under a mutex (LOCK_*).
	LockBegin(id int)
	LockEnd(id int)
	// PipeBegin / PipeEnd bracket a pipeline-parallel section (§VIII
	// extension); StageBreak separates the stages inside its tasks.
	PipeBegin(name string)
	PipeEnd()
	StageBreak()
	// IOWait marks time the task spends blocked on I/O without using a
	// CPU (§VIII extension); legal only inside a task.
	IOWait(cycles int64)
	// Compute performs work: instrCycles cycles of computation that
	// issue llcMisses last-level-cache misses.
	Compute(instrCycles, llcMisses int64)
}

// Program is an annotated serial program: it performs its computation
// through ctx, calling the annotation methods around potentially parallel
// regions.
type Program func(ctx Context)

// LengthUnit selects the unit in which interval lengths are recorded —
// the §VI-A design choice. The paper tried both: "If we use the unit of
// length as the number of executed instructions, the problem [of excluding
// profiling overhead] is easy to solve. However, we observed that
// different instruction mixes cause a lot of prediction errors. ...
// Instead, we use time as the unit." Both are implemented here so that
// finding can be reproduced (see TestInstructionUnitMispredictsMixes).
type LengthUnit uint8

const (
	// LengthCycles records elapsed cycles — the paper's choice.
	LengthCycles LengthUnit = iota
	// LengthInstructions records executed instructions, which
	// misrepresents segments whose instruction mixes differ (a
	// memory-stalled instruction takes far longer than an ALU one).
	LengthInstructions
)

// SimProfiler profiles a Program on a virtual clock with the given DRAM
// timing: Compute advances virtual time by instr + misses·ω₀ (a serial run
// never saturates the bus) and feeds the counter model. It implements
// Context and CounterSource.
type SimProfiler struct {
	*Tracer
	clk *clock.Virtual
	// latency is the DRAM's unloaded per-miss stall ω₀.
	latency float64
	unit    LengthUnit

	instr  int64
	misses int64
	cycles clock.Cycles
}

// NewSimProfiler returns a profiler over a fresh virtual clock for a
// machine with the given (validated) DRAM, recording interval lengths in
// unit (§VI-A; LengthCycles is the paper's). Program-tree nodes are drawn
// from a, for callers that profile repeatedly and discard each tree
// (benchmarks, validation sweeps that own their samples); the returned
// tree is then valid only until a.Reset, see tree.Arena for the lifetime
// contract. A nil arena allocates from the heap.
func NewSimProfiler(dram machine.DRAMSpec, unit LengthUnit, a *tree.Arena) *SimProfiler {
	p := &SimProfiler{clk: &clock.Virtual{}, latency: dram.UnloadedLatency, unit: unit}
	p.Tracer = NewWithArena(p.clk, p, a)
	return p
}

// Compute advances virtual time by the serial cost of the segment and
// records its memory traits. Under LengthInstructions only the
// instruction count advances the length clock; the true elapsed cycles
// are still tracked for the hardware counters.
func (p *SimProfiler) Compute(instrCycles, llcMisses int64) {
	if instrCycles < 0 {
		instrCycles = 0
	}
	if llcMisses < 0 {
		llcMisses = 0
	}
	d := clock.Cycles(float64(instrCycles) + float64(llcMisses)*p.latency + 0.5)
	p.cycles += d
	if p.unit == LengthInstructions {
		p.clk.Advance(clock.Cycles(instrCycles))
	} else {
		p.clk.Advance(d)
	}
	p.instr += instrCycles
	p.misses += llcMisses
	p.AddMem(instrCycles, llcMisses)
}

// IOWait advances virtual time by the wait and records a W node.
func (p *SimProfiler) IOWait(cycles int64) {
	if cycles < 0 {
		cycles = 0
	}
	now := p.clk.Now()
	p.ioWait(now, cycles)
	p.clk.Advance(clock.Cycles(cycles))
	p.cycles += clock.Cycles(cycles)
}

// Counters implements CounterSource: cumulative instructions, cycles and
// LLC misses, as PAPI would report them (true cycles, independent of the
// length unit).
func (p *SimProfiler) Counters() counters.Sample {
	return counters.Sample{Instructions: p.instr, Cycles: p.cycles, LLCMisses: p.misses}
}

// Profile runs prog under a fresh SimProfiler and returns the program tree
// along with the profiler (whose Counters hold whole-run totals).
func Profile(prog Program, dram machine.DRAMSpec) (*tree.Node, *SimProfiler, error) {
	return ProfileArena(prog, dram, nil)
}

// ProfileArena is Profile with the tree allocated from a: repeated
// profile-discard cycles (a.Reset between them) stop allocating node
// storage once the arena is warm. The tree is only valid until a.Reset.
func ProfileArena(prog Program, dram machine.DRAMSpec, a *tree.Arena) (*tree.Node, *SimProfiler, error) {
	p := NewSimProfiler(dram, LengthCycles, a)
	prog(p)
	root, err := p.Finish()
	return root, p, err
}

// HostProfiler profiles a Program against the real monotonic clock:
// Compute spins for the requested number of nominal cycles (FakeDelay), so
// an annotated program can be profiled on the host machine, annotation
// overhead excluded, exactly as the paper's Pin-based tracer does. Memory
// traits are recorded for the tree but no cache traffic is generated.
type HostProfiler struct {
	*Tracer
	clk *clock.Host
	// latency is the paper machine's unloaded per-miss stall ω₀.
	latency float64

	instr  int64
	misses int64
}

// NewHostProfiler returns a profiler over the host monotonic clock at hz
// nominal cycles per second (non-positive selects clock.DefaultHz).
func NewHostProfiler(hz float64) *HostProfiler {
	p := &HostProfiler{clk: clock.NewHost(hz), latency: machine.Default().DRAM.UnloadedLatency}
	p.Tracer = New(p.clk, p)
	return p
}

// Compute burns wall-clock time equivalent to instrCycles (+ misses at the
// default unloaded latency) on the host.
func (p *HostProfiler) Compute(instrCycles, llcMisses int64) {
	total := float64(instrCycles) + float64(llcMisses)*p.latency
	deadline := time.Duration(total / p.clk.Hz() * float64(time.Second))
	start := time.Now()
	for time.Since(start) < deadline {
		// spin: FakeDelay must not touch memory (§IV-E)
		spinSink++
	}
	p.instr += instrCycles
	p.misses += llcMisses
	p.AddMem(instrCycles, llcMisses)
}

// IOWait sleeps for the wait's wall-clock equivalent and records a W node
// (on the host the wait is real — time.Sleep releases the OS thread just
// as the annotated program's I/O would).
func (p *HostProfiler) IOWait(cycles int64) {
	if cycles < 0 {
		cycles = 0
	}
	now := p.clk.Now() - p.ExcludedOverhead()
	p.ioWait(now, cycles)
	time.Sleep(time.Duration(float64(cycles) / p.clk.Hz() * float64(time.Second)))
}

// Counters implements CounterSource for host profiling.
func (p *HostProfiler) Counters() counters.Sample {
	return counters.Sample{Instructions: p.instr, Cycles: p.clk.Now(), LLCMisses: p.misses}
}

// spinSink defeats dead-code elimination of the FakeDelay spin loop.
var spinSink int64
