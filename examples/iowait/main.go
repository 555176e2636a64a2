// iowait demonstrates the I/O-wait extension (the paper's §VIII lists I/O
// in annotated regions as a limitation; this reproduction models it): a
// loop whose tasks spend 70% of their time blocked on I/O can profitably
// use far more threads than cores — and only the machine-backed
// synthesizer predicts it.
//
//	go run ./examples/iowait
package main

import (
	"context"
	"fmt"
	"log"

	"prophet"
)

func fetchComputeStore(ctx prophet.Context) {
	ctx.SecBegin("requests")
	for i := 0; i < 64; i++ {
		ctx.TaskBegin("request")
		ctx.Compute(15_000, 0) // parse / prepare
		ctx.IOWait(70_000)     // blocked on the backend, no CPU used
		ctx.Compute(15_000, 0) // post-process
		ctx.TaskEnd()
	}
	ctx.SecEnd(false)
}

func main() {
	ctx := context.Background()
	// The paper machine cut down to 4 cores: copy the default preset
	// and validate the copy.
	quad := *prophet.DefaultMachineSpec()
	quad.Name, quad.Desc = "westmere4", "the paper machine with 4 of its 12 cores"
	quad.CoreGroups = []prophet.CoreGroup{{Count: 4, Speed: 1}}
	if err := quad.Validate(); err != nil {
		log.Fatal(err)
	}
	machine := prophet.MachineConfig{Spec: &quad}
	prof, err := prophet.ProfileProgramCtx(ctx, fetchComputeStore, &prophet.Options{Machine: machine})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("64 requests, 70% of each blocked on I/O; machine has 4 cores")
	fmt.Println()
	fmt.Println("threads   synthesizer   FF (treats waits as compute)   real (machine)")
	for _, threads := range []int{2, 4, 8, 16} {
		syn, err := prof.EstimateCtx(ctx, prophet.Request{
			Method: prophet.Synthesizer, Threads: threads, Sched: prophet.Dynamic1,
		})
		if err != nil {
			log.Fatal(err)
		}
		ffp, err := prof.EstimateCtx(ctx, prophet.Request{
			Method: prophet.FastForward, Threads: threads, Sched: prophet.Dynamic1,
		})
		if err != nil {
			log.Fatal(err)
		}
		real, err := prof.RealSpeedupCtx(ctx, prophet.Request{Threads: threads, Sched: prophet.Dynamic1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7d   %11.2f   %28.2f   %14.2f\n", threads, syn.Speedup, ffp.Speedup, real)
	}
	fmt.Println()
	fmt.Println("oversubscription pays: with 16 threads on 4 cores, waits overlap and")
	fmt.Println("the real speedup beats the core count. The synthesizer nails it because")
	fmt.Println("it actually schedules the generated program on the machine; the")
	fmt.Println("analytical FF, with no machine underneath, over-promises (compute from")
	fmt.Println("16 threads can't really fit on 4 cores).")
}
