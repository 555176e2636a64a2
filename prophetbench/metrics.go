package main

// metricDef is one reported metric: its name and unit, exactly as in
// BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports: what a user of the
// daemon sees. README.md defines each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"pred_err_pct", "%"},
	{"alloc_kb_per_req", "KiB"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the metrics a --trace 1 run reports, one or more per
// layer of the daemon. README.md maps each to the end-to-end metric it
// should move.
var perLayer = []metricDef{
	{"http.overhead_ms.p50", "ms"},
	{"server.handler_ms.p50", "ms"},
	{"server.self_ms.p50", "ms"},
	{"server.cache.hit_frac", "ratio"},
	{"server.batch.cells_per_batch", "count"},
	{"server.flight.dedup_frac", "ratio"},
	{"server.rejected_frac", "ratio"},
	{"emulate.cells_per_req", "count"},
	{"emulate.ms_per_cell", "ms"},
	{"ff.us_per_cell", "us"},
	{"synth.ms_per_cell", "ms"},
	{"sim.events_per_cell", "count"},
	{"sim.ns_per_event", "ns"},
	{"surrogate.serve_frac", "ratio"},
	{"surrogate.eval_us.p50", "us"},
	{"surrogate.refits", "count"},
	{"surrogate.shadow_runs", "count"},
	{"surrogate.answer_err_p99_pct", "%"},
	{"advise.ms_per_req", "ms"},
	{"advise.cells_per_req", "count"},
	{"advise.regions_per_req", "count"},
	{"advise.region_err_frac", "ratio"},
	{"profile.ms", "ms"},
	{"compress.ms", "ms"},
	{"calibrate.ms", "ms"},
	{"gc.pause_ms_per_kreq", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// tailQuantile is each workload's tail percentile. It is fixed per
// workload — p99 where a run completes thousands of requests, p90 on
// advise, whose requests each fan out into hundreds of cells and number
// a few hundred per run — so at least minBeyond samples lie beyond it.
var tailQuantile = map[string]float64{
	"cold":      0.99,
	"warm":      0.99,
	"surrogate": 0.99,
	"advise":    0.90,
}
