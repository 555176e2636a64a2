package obs

import (
	"strings"
	"testing"
)

// TestGanttIgnoresNonSliceEvents: only KSlice events draw lanes; FF steps
// and instants neither add rows nor stretch the makespan.
func TestGanttIgnoresNonSliceEvents(t *testing.T) {
	var b TraceBuffer
	b.Exec(ExecEvent{Kind: KSchedule, Time: 0, Core: 5, Thread: 1, Lock: -1})
	b.Exec(ExecEvent{Kind: KSlice, Time: 0, End: 100, Core: 0, Thread: 12, Lock: -1})
	b.Exec(ExecEvent{Kind: KFFStep, Time: 0, End: 900, Core: 3, Thread: 2, Lock: -1})
	var out strings.Builder
	if err := b.WriteGantt(&out, 10); err != nil {
		t.Fatal(err)
	}
	want := "timeline: 100 cycles, 1 cores, '.'=idle\ncore  0 |cccccccccc|\n"
	if out.String() != want {
		t.Fatalf("gantt = %q, want %q", out.String(), want)
	}
	if u := b.Utilization(); len(u) != 1 || u[0] != 1 {
		t.Fatalf("utilization = %v, want map[0:1]", u)
	}
}
