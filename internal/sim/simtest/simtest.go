// Package simtest holds test helpers for code that runs on the simulated
// machine.
package simtest

import (
	"testing"

	"prophet/internal/clock"
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
