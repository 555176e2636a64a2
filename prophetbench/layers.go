package main

import (
	"fmt"
	"sort"

	"prophet"
	"prophet/internal/obs"
)

// layerInputs is everything a traced pass recorded.
type layerInputs struct {
	shots  []shot
	timed  outcome
	spans  map[int64]float64 // ServeHTTP span per sequence number (ms)
	s0, s1 obs.Snapshot      // server registry around the timed phase
	r0, r1 obs.Snapshot      // reference registry around the replay
	replay map[cellID]replayed
	times  *cellTimes // replay time per cell, by method
	setup  setupStats
	// verdict of the timed phase's answers.
	verdict   verdict
	gcPauseNs uint64
}

func counterDelta(a, b obs.Snapshot, name string) float64 {
	return float64(b.Counters[name] - a.Counters[name])
}

// histDelta is the change of one histogram between two snapshots.
func histDelta(a, b obs.Snapshot, name string) (count, sum float64, buckets map[int64]int64) {
	ha, hb := a.Histograms[name], b.Histograms[name]
	buckets = map[int64]int64{}
	for k, v := range hb.Buckets {
		if d := v - ha.Buckets[k]; d > 0 {
			buckets[k] = d
		}
	}
	return float64(hb.Count - ha.Count), float64(hb.Sum - ha.Sum), buckets
}

// layers computes the per-layer metrics of a traced pass into met.
//
// Spans come from the benchmark's own calls only: the client round trip
// and a wrapper around Handler().ServeHTTP per request, Server.Load, and
// the replay of the run's cells through Profile.EstimateCtx. Counts and
// busy times come from deltas of the server's obs registry over the
// timed phase.
func layers(met map[string]float64, in layerInputs, notes *[]string) {
	req := float64(in.timed.attempted)
	var overhead, handler, self []float64
	floored := 0
	evalCount, evalSum, evalBuckets := histDelta(in.s0, in.s1, obs.MSurrogateEvalLatency)
	evalMeanMS := ratio(evalSum, evalCount) / 1e6
	for seq, r := range in.timed.seqs {
		h, ok := in.spans[seq]
		if !ok {
			continue
		}
		overhead = append(overhead, r.rttMS-h)
		handler = append(handler, h)
		sh := in.shots[r.idx]
		if sh.path != "/v1/predict" {
			continue
		}
		// Self time of a single-cell request: the handler span minus the
		// cell's emulation, charged at its uncontended replay time when
		// this request emulated it, or the mean surrogate evaluation when
		// the surrogate answered. Contention makes live emulation slower
		// than the replay, so the difference is rarely negative; where it
		// is (a request that joined another's in-flight cell, or a
		// sub-millisecond cell that ran faster live than in the replay),
		// it counts as zero and is reported.
		s := h
		switch r.source {
		case "emulated":
			s -= float64(in.replay[cellID{sh.workload, sh.cells[0]}].dur.Nanoseconds()) / 1e6
		case prophet.SourceSurrogate:
			s -= evalMeanMS
		}
		if s < 0 {
			s = 0
			floored++
		}
		self = append(self, s)
	}
	emuCount, emuSum, _ := histDelta(in.s0, in.s1, obs.MStageEmulate)
	*notes = append(*notes, fmt.Sprintf("time by layer, summed over requests: http %.3gs, handler %.3gs, of which emulation busy %.3gs and surrogate evaluation %.3gs",
		sum(overhead)/1e3, sum(handler)/1e3, emuSum/1e9, evalSum/1e9))
	met["http.overhead_ms.p50"] = p50(overhead)
	met["server.handler_ms.p50"] = p50(handler)
	met["server.self_ms.p50"] = p50(self)
	*notes = append(*notes,
		fmt.Sprintf("spans: %d requests matched; server.self_ms over %d /v1/predict requests, %d floored at 0", len(handler), len(self), floored))

	hits := counterDelta(in.s0, in.s1, obs.MServerCacheHits)
	misses := counterDelta(in.s0, in.s1, obs.MServerCacheMisses)
	met["server.cache.hit_frac"] = ratio(hits, hits+misses)
	cells := counterDelta(in.s0, in.s1, obs.MServerBatchCells)
	met["server.batch.cells_per_batch"] = ratio(cells, counterDelta(in.s0, in.s1, obs.MServerBatches))
	met["server.flight.dedup_frac"] = ratio(counterDelta(in.s0, in.s1, obs.MServerFlightDedups), misses)
	met["server.rejected_frac"] = ratio(counterDelta(in.s0, in.s1, obs.MServerRejected), req)

	met["emulate.cells_per_req"] = ratio(emuCount, req)
	met["emulate.ms_per_cell"] = ratio(emuSum, emuCount) / 1e6

	ffN, ffT := in.times.n[prophet.FastForward], in.times.sum[prophet.FastForward]
	synthN, synthT := in.times.n[prophet.Synthesizer], in.times.sum[prophet.Synthesizer]
	met["ff.us_per_cell"] = ratio(float64(ffT.Nanoseconds())/1e3, float64(ffN))
	met["synth.ms_per_cell"] = ratio(float64(synthT.Nanoseconds())/1e6, float64(synthN))
	events := counterDelta(in.r0, in.r1, obs.MSimEvents)
	met["sim.events_per_cell"] = ratio(events, counterDelta(in.r0, in.r1, obs.MSimRuns))
	met["sim.ns_per_event"] = ratio(float64(synthT.Nanoseconds()), events)
	*notes = append(*notes, fmt.Sprintf("replay: %d FF cells, %d Synthesizer cells, %.0f sim events", ffN, synthN, events))

	sgHits := counterDelta(in.s0, in.s1, obs.MSurrogateHits)
	met["surrogate.serve_frac"] = ratio(sgHits, sgHits+counterDelta(in.s0, in.s1, obs.MSurrogateFallbacks))
	met["surrogate.eval_us.p50"] = histP50(evalBuckets, int64(evalCount)) / 1e3
	met["surrogate.refits"] = counterDelta(in.s0, in.s1, obs.MSurrogateRefits)
	met["surrogate.shadow_runs"] = counterDelta(in.s0, in.s1, obs.MSurrogateShadowRuns)
	errs := append([]float64(nil), in.verdict.relErrPct...)
	sort.Float64s(errs)
	e99, beyond, _ := percentile(errs, 0.99)
	met["surrogate.answer_err_p99_pct"] = e99
	*notes = append(*notes, fmt.Sprintf("surrogate.answer_err_p99_pct over %d predict answers, %d beyond", len(errs), beyond))

	advCount, advSum, _ := histDelta(in.s0, in.s1, obs.MAdviseLatency)
	met["advise.ms_per_req"] = ratio(advSum, advCount) / 1e6
	advReqs := counterDelta(in.s0, in.s1, obs.MServerAdvises)
	met["advise.cells_per_req"] = ratio(cells, advReqs)
	met["advise.regions_per_req"] = ratio(counterDelta(in.s0, in.s1, obs.MAdviseRegions), advReqs)
	met["advise.region_err_frac"] = ratio(float64(in.verdict.regionErrs), float64(in.verdict.regions))

	met["profile.ms"] = in.setup.ProfileMS
	met["compress.ms"] = in.setup.CompressMS
	met["calibrate.ms"] = in.setup.CalibrateMS
	met["gc.pause_ms_per_kreq"] = ratio(float64(in.gcPauseNs)/1e6, req/1000)
}
