package sim

import (
	"sort"
	"strings"
	"testing"

	"prophet/internal/clock"
	"prophet/internal/obs"
)

// runTraced is run with an obs.TraceBuffer attached as the tracer.
func runTraced(t testing.TB, c Config, main func(*Thread)) (clock.Cycles, Stats, *obs.TraceBuffer) {
	t.Helper()
	buf := &obs.TraceBuffer{}
	end, st, err := RunOpt(c, RunOpts{Tracer: buf}, main)
	if err != nil {
		t.Fatal(err)
	}
	return end, st, buf
}

// sliceEvents returns the buffer's KSlice events in emission order.
func sliceEvents(buf *obs.TraceBuffer) []obs.ExecEvent {
	var out []obs.ExecEvent
	for _, ev := range buf.Events() {
		if ev.Kind == obs.KSlice {
			out = append(out, ev)
		}
	}
	return out
}

// TestSliceEventsMatchStats: the traced work slices account for exactly
// the run's busy cycles and end at its makespan.
func TestSliceEventsMatchStats(t *testing.T) {
	end, st, buf := runTraced(t, cfg(2), func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(40_000) })
		th.Work(20_000)
		th.Join(w)
	})
	slices := sliceEvents(buf)
	if len(slices) == 0 {
		t.Fatal("no slices traced")
	}
	var busy, last clock.Cycles
	for _, ev := range slices {
		busy += ev.End - ev.Time
		last = max(last, ev.End)
	}
	if busy != st.BusyCycles {
		t.Fatalf("traced busy %d != stats busy %d", busy, st.BusyCycles)
	}
	if last != end {
		t.Fatalf("traced makespan %d != run end %d", last, end)
	}
}

// TestSliceEventsDisjointPerCore: a core never runs two slices at once.
func TestSliceEventsDisjointPerCore(t *testing.T) {
	_, _, buf := runTraced(t, cfg(2), func(th *Thread) {
		var ws []*Thread
		for i := 0; i < 6; i++ {
			n := clock.Cycles(15_000 + 5_000*i)
			ws = append(ws, th.Spawn(func(w *Thread) { w.Work(n) }))
		}
		for _, w := range ws {
			th.Join(w)
		}
	})
	perCore := map[int][]obs.ExecEvent{}
	for _, ev := range sliceEvents(buf) {
		perCore[ev.Core] = append(perCore[ev.Core], ev)
	}
	for core, list := range perCore {
		sort.Slice(list, func(i, j int) bool { return list[i].Time < list[j].Time })
		for i := 1; i < len(list); i++ {
			if list[i].Time < list[i-1].End {
				t.Fatalf("core %d: overlapping slices %+v and %+v", core, list[i-1], list[i])
			}
		}
	}
}

func TestGanttRendering(t *testing.T) {
	_, _, buf := runTraced(t, cfg(2), func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(50_000) })
		th.Work(50_000)
		th.Join(w)
	})
	var b strings.Builder
	if err := buf.WriteGantt(&b, 40); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "core  0") || !strings.Contains(out, "core  1") {
		t.Fatalf("missing core rows:\n%s", out)
	}
	// Both threads appear; no idle-only rows for a fully busy run.
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Fatalf("thread glyphs missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 cores:\n%s", len(lines), out)
	}
}

func TestGanttEmpty(t *testing.T) {
	var b strings.Builder
	if err := (&obs.TraceBuffer{}).WriteGantt(&b, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty") {
		t.Fatalf("empty timeline output: %q", b.String())
	}
}

// TestThreadGlyphs: thread ids render as 0-9, then a-z, then '#'.
func TestThreadGlyphs(t *testing.T) {
	var buf obs.TraceBuffer
	for core, thread := range []int{3, 10, 35, 99} {
		buf.Exec(obs.ExecEvent{Kind: obs.KSlice, Time: 0, End: 100, Core: core, Thread: thread, Lock: -1})
	}
	var b strings.Builder
	if err := buf.WriteGantt(&b, 10); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"|3333333333|", "|aaaaaaaaaa|", "|zzzzzzzzzz|", "|##########|"} {
		if !strings.Contains(b.String(), row) {
			t.Fatalf("glyph row %s missing:\n%s", row, b.String())
		}
	}
}

func TestUtilization(t *testing.T) {
	_, _, buf := runTraced(t, cfg(2), func(th *Thread) {
		w := th.Spawn(func(w *Thread) { w.Work(50_000) })
		th.Work(100_000) // core 0 fully busy; core 1 half busy
		th.Join(w)
	})
	u := buf.Utilization()
	if u[0] < 0.99 {
		t.Fatalf("core 0 utilization = %.2f, want ~1", u[0])
	}
	if u[1] < 0.45 || u[1] > 0.55 {
		t.Fatalf("core 1 utilization = %.2f, want ~0.5", u[1])
	}
	if len((&obs.TraceBuffer{}).Utilization()) != 0 {
		t.Fatal("empty buffer should have no utilization")
	}
}
