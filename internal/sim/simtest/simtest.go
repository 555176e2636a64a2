// Package simtest holds test helpers for code that runs on the simulated
// machine.
package simtest

import (
	"fmt"
	"sync"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/machine"
	"prophet/internal/sim"
)

// Run executes main as thread 0 of a machine with configuration cfg and
// fails the test on any simulation error (deadlock, lock misuse, thread
// panic, budget).
func Run(t testing.TB, cfg sim.Config, main func(*sim.Thread)) (clock.Cycles, sim.Stats) {
	t.Helper()
	end, st, err := sim.RunOpt(cfg, sim.RunOpts{}, main)
	if err != nil {
		t.Fatal(err)
	}
	return end, st
}

// Machine returns the standard test machine with the given core count:
// the paper machine's LLC and DRAM, a 10k-cycle quantum (short enough to
// exercise preemption on small workloads) and free context switches, so
// exact-makespan assertions need not account for switch costs.
func Machine(cores int) sim.Config {
	return sim.Config{Spec: Spec(cores, 10_000, 0)}
}

type shape struct {
	cores                  int
	quantum, contextSwitch clock.Cycles
}

var specs sync.Map // shape -> *machine.Spec

// Spec returns the paper machine with its core count, quantum and
// context-switch cost replaced. Equal arguments return the same pointer:
// caches keyed on sim.Config — the memory-model calibration cache among
// them — compare specs by pointer, so one canonical spec per shape keeps
// them hitting across tests.
func Spec(cores int, quantum, contextSwitch clock.Cycles) *machine.Spec {
	k := shape{cores, quantum, contextSwitch}
	if s, ok := specs.Load(k); ok {
		return s.(*machine.Spec)
	}
	s := *machine.Default()
	s.Name = fmt.Sprintf("test%d-q%d-cs%d", cores, quantum, contextSwitch)
	s.Desc = ""
	s.CoreGroups = []machine.CoreGroup{{Count: cores, Speed: 1}}
	s.Quantum = quantum
	s.ContextSwitch = contextSwitch
	if err := s.Validate(); err != nil {
		panic(err)
	}
	got, _ := specs.LoadOrStore(k, &s)
	return got.(*machine.Spec)
}
