package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"prophet"
	"prophet/internal/workloads"
)

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
// Names are matched exactly; anything else is a usage error.
var workloadNames = []string{"cold", "warm", "surrogate", "advise"}

// shot is one request of a stream: the HTTP path and body the server
// sees, plus what the answer checks need to recompute the answer.
type shot struct {
	path     string
	body     []byte
	workload string
	// cells are the requests the answer carries, in the server's
	// response order: one for /v1/predict, the grid for /v1/sweep, and
	// none for /v1/advise.
	cells []prophet.Request
	// cores and method are the /v1/advise parameters.
	cores  []int
	method prophet.Method
}

// stream is a workload's generated input. warmup runs once, untimed,
// before timed; timed is replayed from the start when exhausted only if
// cycle is set (warm re-asks the same questions; the others stop).
type stream struct {
	warmup []shot
	timed  []shot
	cycle  bool
	// segment is how many timed requests make one throughput segment:
	// whole blocks lasting about a second, so every segment carries the
	// same mix.
	segment int
}

// Request axes. grid is the calibrated thread-count axis the server
// loads with (prophet.DefaultThreadCounts); offGrid lies between its
// points. combos are the parallelization choices a request may ask
// about: OpenMP under each schedule, or Cilk work stealing.
var (
	grid    = []int{2, 4, 6, 8, 10, 12}
	offGrid = []int{3, 5, 7, 9, 11}
	combos  = []combo{
		{prophet.OpenMP, prophet.Static}, {prophet.OpenMP, prophet.Static1},
		{prophet.OpenMP, prophet.Dynamic1}, {prophet.OpenMP, prophet.Guided},
		{prophet.Cilk, prophet.Sched{}},
	}
)

type combo struct {
	paradigm prophet.Paradigm
	sched    prophet.Sched
}

// streamBlocks is how many blocks a stream holds: more than a run gets
// through, so a run is cut by time, not by the stream.
const streamBlocks = 400

// warmBlocks is the cold prefix the warm workload replays.
const warmBlocks = 8

// predictMethods are the predicts a cold block asks each workload: all
// five engines, the two analytical bounds twice. The bounds cost
// microseconds, so they carry the serving path's own cost, and they make
// the block long enough that the heaviest cells (one LU-OMP Synthesizer
// predict per block) are the slowest 1.6% of requests: the p99 falls
// among them, not on the edge of their group.
var predictMethods = []prophet.Method{
	prophet.FastForward, prophet.Synthesizer, prophet.Suitability,
	prophet.AmdahlLaw, prophet.CriticalPathBound, prophet.AmdahlLaw, prophet.CriticalPathBound,
}

// sweepMethods are the engines a cold block's sweep may use: all but the
// Synthesizer, whose LU-OMP sweep alone would take over a second.
var sweepMethods = []prophet.Method{
	prophet.FastForward, prophet.Suitability, prophet.AmdahlLaw, prophet.CriticalPathBound,
}

// surrogateMethods are the engines the surrogate workload trains and
// asks: the two whose emulation costs enough for a learned answer to
// matter and little enough to train on the whole grid before timing.
var surrogateMethods = []prophet.Method{prophet.FastForward, prophet.Suitability}

// surrogateSkips are the programs the surrogate workload leaves out.
// Their FF and Suitability cells cost 5–50 ms against the surrogate's
// tens of microseconds, so which of them happened to fall back to
// emulation in a run — that depends on thread timing through the
// training order — would decide the run's throughput.
var surrogateSkips = map[string]bool{"LU-OMP": true, "NPB-FT": true}

// adviseMethod is the engine each workload's advise requests use: the
// Synthesizer, except where its advice costs seconds per request
// (LU-OMP, NPB-FT, NPB-CG), which use the critical-path bound so that
// one request cannot dominate a run.
func adviseMethod(workload string) prophet.Method {
	switch workload {
	case "LU-OMP", "NPB-FT", "NPB-CG":
		return prophet.CriticalPathBound
	}
	return prophet.Synthesizer
}

// benchWorkload is one of the eight Fig. 12 programs with the
// parallelization the paper applies to it.
type benchWorkload struct {
	name     string
	paradigm prophet.Paradigm
	sched    prophet.Sched
}

func fig12() []benchWorkload {
	var out []benchWorkload
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			panic(err) // Names and ByName share one registry
		}
		out = append(out, benchWorkload{name: name, paradigm: w.Paradigm, sched: w.Sched})
	}
	return out
}

// balanced orders the 2·na·nb index triples (a, b, flag) so that every
// na consecutive triples hold each a once, b rotates through its values
// as evenly, and flag flips after the first na·nb: all triples differ,
// and any stretch of them mixes the axes alike. The seed permutes each
// axis.
func balanced(rng *rand.Rand, na, nb int) [][3]int {
	pa, pb, pf := rng.Perm(na), rng.Perm(nb), rng.Perm(2)
	out := make([][3]int, 0, 2*na*nb)
	for j := 0; j < 2*na*nb; j++ {
		out = append(out, [3]int{pa[j%na], pb[(j%na+j/na)%nb], pf[j/(na*nb)]})
	}
	return out
}

// cellCycle lists the distinct cells of one method — threads ×
// parallelizations × memory model on and off — in balanced order, so
// that every stretch of a stream asks each thread count about equally
// often and costs about the same whatever the seed.
func cellCycle(rng *rand.Rand, m prophet.Method, threads []int) []prophet.Request {
	var out []prophet.Request
	for _, ix := range balanced(rng, len(threads), len(combos)) {
		c := combos[ix[1]]
		out = append(out, prophet.Request{Method: m, Threads: threads[ix[0]], Paradigm: c.paradigm, Sched: c.sched, MemoryModel: ix[2] == 0})
	}
	return out
}

// cycles hands out each key's items in order, wrapping around; items
// are built from the seed on first use of a key.
type cycles[T any] struct {
	items map[string][]T
	next  map[string]int
}

func newCycles[T any]() *cycles[T] {
	return &cycles[T]{items: map[string][]T{}, next: map[string]int{}}
}

func (c *cycles[T]) draw(key string, build func() []T) T {
	items, ok := c.items[key]
	if !ok {
		items = build()
		c.items[key] = items
	}
	i := c.next[key]
	c.next[key] = i + 1
	return items[i%len(items)]
}

func predictShot(w string, req prophet.Request) shot {
	body, err := json.Marshal(map[string]any{"workload": w, "request": req})
	if err != nil {
		panic(err)
	}
	return shot{path: "/v1/predict", body: body, workload: w, cells: []prophet.Request{req}}
}

func sweepShot(w string, m prophet.Method, c combo, mm bool, cores []int) shot {
	body, err := json.Marshal(map[string]any{
		"workload":     w,
		"methods":      []string{m.String()},
		"paradigms":    []string{c.paradigm.String()},
		"scheds":       []string{c.sched.String()},
		"cores":        cores,
		"memory_model": mm,
	})
	if err != nil {
		panic(err)
	}
	sh := shot{path: "/v1/sweep", body: body, workload: w}
	for _, t := range cores {
		sh.cells = append(sh.cells, prophet.Request{Method: m, Threads: t, Paradigm: c.paradigm, Sched: c.sched, MemoryModel: mm})
	}
	return sh
}

func adviseShot(w string, cores []int, m prophet.Method) shot {
	body, err := json.Marshal(map[string]any{"workload": w, "cores": cores, "method": m.String()})
	if err != nil {
		panic(err)
	}
	return shot{path: "/v1/advise", body: body, workload: w, cores: cores, method: m}
}

// blocks builds n blocks of requests. Each block asks every workload
// the same kinds of question — so any run of whole blocks carries the
// same mix of cheap and heavy cells whatever the seed — in a shuffled
// order; the seed picks which cell of each kind's pool is asked.
func blocks(rng *rand.Rand, n int, kinds func(w string) []shot) []shot {
	var out []shot
	for b := 0; b < n; b++ {
		var blk []shot
		for _, w := range workloads.Names() {
			blk = append(blk, kinds(w)...)
		}
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		out = append(out, blk...)
	}
	return out
}

// coldKinds asks each workload the predicts of predictMethods, each a
// fresh cell of its method's cycle, and one sweep over the off-grid
// thread counts, which no predict asks; the sweeps cycle through the
// sweep methods and parallelizations.
func coldKinds(rng *rand.Rand) func(string) []shot {
	cells := newCycles[prophet.Request]()
	sweeps := newCycles[[3]int]()
	return func(w string) []shot {
		var out []shot
		for _, m := range predictMethods {
			req := cells.draw(w+"/"+m.String(), func() []prophet.Request { return cellCycle(rng, m, grid) })
			out = append(out, predictShot(w, req))
		}
		sw := sweeps.draw(w, func() [][3]int { return balanced(rng, len(sweepMethods), len(combos)) })
		return append(out, sweepShot(w, sweepMethods[sw[0]], combos[sw[1]], sw[2] == 0, offGrid))
	}
}

// advisePairs is every thread-count pair an advise request may sweep:
// two counts from 2..12, so the region experiments run at one of eleven
// targets.
func advisePairs() [][]int {
	var out [][]int
	for a := 2; a <= 12; a++ {
		for b := a + 1; b <= 12; b++ {
			out = append(out, []int{a, b})
		}
	}
	return out
}

// buildStream generates a workload's requests from its seed. The stream
// depends on nothing else — not on the client count or the host — so
// the same seed always sends the same bodies.
func buildStream(workload string, seed int64) (stream, error) {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "cold":
		return stream{timed: blocks(rng, streamBlocks, coldKinds(rng)), segment: 2 * 64}, nil
	case "warm":
		s := blocks(rng, warmBlocks, coldKinds(rng))
		return stream{warmup: s, timed: s, cycle: true, segment: 40 * len(s)}, nil
	case "surrogate":
		var s stream
		for _, w := range workloads.Names() {
			if surrogateSkips[w] {
				continue
			}
			for _, m := range surrogateMethods {
				for _, c := range combos {
					for _, mm := range []bool{true, false} {
						s.warmup = append(s.warmup, sweepShot(w, m, c, mm, grid))
					}
				}
			}
		}
		cells := newCycles[prophet.Request]()
		s.timed = blocks(rng, streamBlocks, func(w string) []shot {
			if surrogateSkips[w] {
				return nil
			}
			var out []shot
			for _, m := range surrogateMethods {
				req := cells.draw(w+"/"+m.String(), func() []prophet.Request { return cellCycle(rng, m, offGrid) })
				out = append(out, predictShot(w, req))
			}
			return out
		})
		s.cycle = true
		s.segment = 200 * 12
		return s, nil
	case "advise":
		pairs := newCycles[[]int]()
		return stream{timed: blocks(rng, streamBlocks, func(w string) []shot {
			cores := pairs.draw(w, func() [][]int {
				ps := advisePairs()
				rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
				return ps
			})
			return []shot{adviseShot(w, cores, adviseMethod(w))}
		}), segment: 4 * 8}, nil
	}
	return stream{}, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
}
