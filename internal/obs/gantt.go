package obs

import (
	"fmt"
	"io"
	"sort"

	"prophet/internal/clock"
)

// Text timeline rendering. The buffer's KSlice events are the machine's
// executed work slices — the per-CPU lanes Fig. 5 and Fig. 7 draw by hand;
// every other event kind is ignored here.

// slices returns the buffered KSlice events in emission order.
func (b *TraceBuffer) slices() []ExecEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []ExecEvent
	for _, ev := range b.events {
		if ev.Kind == KSlice {
			out = append(out, ev)
		}
	}
	return out
}

// sliceMakespan returns the latest slice end time.
func sliceMakespan(slices []ExecEvent) clock.Cycles {
	var end clock.Cycles
	for _, ev := range slices {
		if ev.End > end {
			end = ev.End
		}
	}
	return end
}

// Utilization returns each core's busy fraction of the slice makespan (0
// when no slice was traced) — the machine-level view behind speedup
// numbers: a saturated memory-bound run shows high busy fractions with low
// speedup, an I/O-bound run the opposite.
func (b *TraceBuffer) Utilization() map[int]float64 {
	slices := b.slices()
	span := sliceMakespan(slices)
	out := map[int]float64{}
	if span == 0 {
		return out
	}
	for _, ev := range slices {
		out[ev.Core] += float64(ev.End-ev.Time) / float64(span)
	}
	return out
}

// WriteGantt renders the buffered slices as a text timeline, one row per
// core, width columns wide. Each cell shows the thread (0-9, then a-z,
// then '#') that occupied the core for the majority of that time bucket;
// '.' is idle.
func (b *TraceBuffer) WriteGantt(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	slices := b.slices()
	span := sliceMakespan(slices)
	if span == 0 {
		_, err := fmt.Fprintln(w, "(empty timeline)")
		return err
	}
	perCore := map[int][]ExecEvent{}
	for _, ev := range slices {
		perCore[ev.Core] = append(perCore[ev.Core], ev)
	}
	cores := make([]int, 0, len(perCore))
	for c, list := range perCore {
		cores = append(cores, c)
		sort.Slice(list, func(i, j int) bool { return list[i].Time < list[j].Time })
	}
	sort.Ints(cores)
	if _, err := fmt.Fprintf(w, "timeline: %d cycles, %d cores, '.'=idle\n", span, len(cores)); err != nil {
		return err
	}
	bucket := float64(span) / float64(width)
	for _, c := range cores {
		row := make([]byte, width)
		occupancy := make([]clock.Cycles, width)
		owner := make([]int, width)
		for i := range row {
			row[i] = '.'
			owner[i] = -1
		}
		for _, ev := range perCore[c] {
			lo := int(float64(ev.Time) / bucket)
			hi := int(float64(ev.End) / bucket)
			if hi >= width {
				hi = width - 1
			}
			for k := lo; k <= hi; k++ {
				kLo := clock.Cycles(float64(k) * bucket)
				kHi := clock.Cycles(float64(k+1) * bucket)
				ov := min(ev.End, kHi) - max(ev.Time, kLo)
				if ov > occupancy[k] {
					occupancy[k] = ov
					owner[k] = ev.Thread
				}
			}
		}
		for i, o := range owner {
			if o >= 0 {
				row[i] = threadGlyph(o)
			}
		}
		if _, err := fmt.Fprintf(w, "core %2d |%s|\n", c, row); err != nil {
			return err
		}
	}
	return nil
}

func threadGlyph(id int) byte {
	switch {
	case id < 10:
		return byte('0' + id)
	case id < 36:
		return byte('a' + id - 10)
	default:
		return '#'
	}
}
