package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"prophet"
	"prophet/internal/obs"
	"prophet/internal/server"
)

// setupStats is one measured set-up: server.New + Load of the eight
// workloads in a fresh process, and the stage times Load recorded.
type setupStats struct {
	SetupS      float64 `json:"setup_s"`
	ProfileMS   float64 `json:"profile_ms"`
	CompressMS  float64 `json:"compress_ms"`
	CalibrateMS float64 `json:"calibrate_ms"`
}

// passResult is a child process's report to the orchestrator.
type passResult struct {
	Setup      setupStats         `json:"setup"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Throughput float64            `json:"throughput"`
	Metrics    map[string]float64 `json:"metrics"`
	Notes      []string           `json:"notes"`
}

// setUp builds and loads a server, timing it. Calibration must have
// run: a process that inherited a calibrated model would under-report
// set-up time.
func setUp(ctx context.Context, cfg server.Config) (*server.Server, setupStats, error) {
	t0 := time.Now()
	srv := server.New(cfg)
	if err := srv.Load(ctx); err != nil {
		return nil, setupStats{}, err
	}
	st := setupStats{SetupS: time.Since(t0).Seconds()}
	snap := cfg.Metrics.Snapshot().Histograms
	st.ProfileMS = float64(snap[obs.MStageProfile].Sum) / 1e6
	st.CompressMS = float64(snap[obs.MStageCompress].Sum) / 1e6
	st.CalibrateMS = float64(snap[obs.MStageCalibrate].Sum) / 1e6
	if snap[obs.MStageCalibrate].Count == 0 || st.CalibrateMS <= 0 {
		return nil, st, fmt.Errorf("set-up did not calibrate the memory model (calibrate %.3f ms): not a fresh process", st.CalibrateMS)
	}
	return srv, st, nil
}

func runChild(kind string, o passOptions, stdout, stderr io.Writer) error {
	ctx := context.Background()
	var p *passResult
	switch kind {
	case "setup":
		srv, st, err := setUp(ctx, server.Config{Metrics: &obs.Registry{}})
		if err != nil {
			return err
		}
		srv.Shutdown(ctx)
		p = &passResult{Setup: st, Correct: true}
	case "timed", "traced", "baseline":
		var err error
		if p, err = measure(ctx, o, kind); err != nil {
			return err
		}
	default:
		return usageError{fmt.Errorf("unknown pass %q", kind)}
	}
	line, err := json.Marshal(p)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// probeThreads and the Synthesizer-with-memory-model method make the
// fixed Fig. 12 probe set (the paper's PredM series) whose served
// answers are scored against the ground-truth run.
var probeThreads = []int{4, 12}

func probeShots() []shot {
	var out []shot
	for _, w := range fig12() {
		for _, t := range probeThreads {
			out = append(out, predictShot(w.name, prophet.Request{
				Method: prophet.Synthesizer, Threads: t, Paradigm: w.paradigm, Sched: w.sched, MemoryModel: true,
			}))
		}
	}
	return out
}

// measure runs one pass: set up, the probe set, the untimed warm-up, the
// timed phase, then the answer checks. A traced pass also records spans
// and the per-layer figures; a baseline pass skips the probes and the
// checks, and only its throughput is used, to price the tracing.
func measure(ctx context.Context, o passOptions, kind string) (*passResult, error) {
	traced := kind == "traced"
	st, err := buildStream(o.workload, o.seed)
	if err != nil {
		return nil, usageError{err}
	}
	reg := &obs.Registry{}
	cfg := server.Config{Metrics: reg}
	switch o.workload {
	case "surrogate":
		// The LRU is off so every timed request is a miss the surrogate
		// may answer; with it on, emulated fallbacks would be cached and
		// the tier would see each off-grid cell only until it fell back.
		cfg.Surrogate = &prophet.SurrogateConfig{Seed: 1}
		cfg.CacheSize = -1
	case "advise":
		// The LRU is off so every advise request emulates its own cells:
		// with it on, the few thousand distinct cells the advisor can ask
		// for are all cached within seconds and the run turns into warm.
		cfg.CacheSize = -1
	}
	srv, setup, err := setUp(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var handler http.Handler = srv.Handler()
	rec := &spanRecorder{h: handler, spans: map[int64]float64{}}
	if traced {
		handler = rec
	}
	ts := httptest.NewServer(handler)
	clients := runtime.NumCPU()
	d := &driver{
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
			Timeout:   60 * time.Second,
		},
		base:    ts.URL,
		clients: clients,
		traced:  traced,
	}

	// The probe set goes first, on the fresh server: asked later, some
	// answers on the surrogate workload would come from a model whose
	// training order depends on thread timing, and the figure would
	// wander from run to run.
	probes := probeShots()
	var probed outcome
	if kind != "baseline" {
		probed = d.run(probes, len(probes), time.Time{})
	}

	var warm outcome
	if len(st.warmup) > 0 {
		warm = d.run(st.warmup, len(st.warmup), time.Time{})
	}
	n := len(st.timed)
	if st.cycle {
		n = math.MaxInt
	}
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := reg.Snapshot()
	timed := d.run(st.timed, n, time.Now().Add(time.Duration(o.seconds*float64(time.Second))))
	runtime.ReadMemStats(&m1)
	s1 := reg.Snapshot()
	runtime.GC()
	runtime.ReadMemStats(&m2)

	ts.Close()
	d.client.CloseIdleConnections()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	if timed.attempted == 0 {
		return nil, fmt.Errorf("no request completed in the timed phase")
	}
	if kind == "baseline" {
		p := &passResult{Setup: setup, Attempted: timed.attempted, Failed: timed.failed}
		tf, _ := timing(st, timed, p.Failed, tailQuantile[o.workload])
		p.Throughput = tf.throughput
		return p, nil
	}

	// Answer checks against an identically loaded reference.
	ref, err := loadReference(ctx)
	if err != nil {
		return nil, err
	}
	// The run's own cells and advise requests are replayed with timing
	// (the per-layer replay spans); probe cells the run did not ask are
	// recomputed afterwards, untimed.
	var runCells, probeCells []cellID
	seenCell := map[cellID]bool{}
	var advIDs []adviseID
	advCores := map[adviseID][]int{}
	collect := func(shots []shot, o outcome, cells *[]cellID) {
		for idx := range o.answers {
			sh := shots[idx]
			for _, c := range sh.cells {
				if id := (cellID{sh.workload, c}); !seenCell[id] {
					seenCell[id] = true
					*cells = append(*cells, id)
				}
			}
			if sh.path == "/v1/advise" {
				if id := adviseKey(sh); advCores[id] == nil {
					advCores[id] = sh.cores
					advIDs = append(advIDs, id)
				}
			}
		}
	}
	collect(st.warmup, warm, &runCells)
	collect(st.timed, timed, &runCells)
	collect(probes, probed, &probeCells)
	// Deterministic replay order, whatever order the answers arrived in.
	sort.Slice(runCells, func(i, j int) bool { return fmt.Sprint(runCells[i]) < fmt.Sprint(runCells[j]) })
	replay := map[cellID]replayed{}
	times := &cellTimes{}
	r0 := ref.metrics.Snapshot()
	ref.replay(ctx, runCells, clients, times, replay)
	advice := ref.advise(ctx, advIDs, advCores, clients, times)
	r1 := ref.metrics.Snapshot()
	ref.replay(ctx, probeCells, clients, nil, replay)

	var vw, vt verdict
	vp := verdict{served: map[int]float64{}}
	check(&vw, st.warmup, warm, replay, advice)
	check(&vt, st.timed, timed, replay, advice)
	check(&vp, probes, probed, replay, advice)

	// Prediction error of the probe set against the ground-truth run.
	real := make([]float64, len(probes))
	parallel(len(probes), clients, func(i int) {
		real[i], _ = ref.profs[probes[i].workload].RealSpeedupCtx(ctx, probes[i].cells[0])
	})
	var errSum float64
	for i := range probes {
		served, ok := vp.served[i]
		if !ok || real[i] <= 0 {
			return nil, fmt.Errorf("probe %s: no served answer or ground truth", probes[i].body)
		}
		errSum += 100 * math.Abs(served-real[i]) / real[i]
	}

	p := &passResult{
		Setup:     setup,
		Attempted: timed.attempted,
		Failed:    timed.failed + vt.errAnswers,
		Metrics:   map[string]float64{},
	}
	mismatches := vw.nMismatch + vt.nMismatch + vp.nMismatch
	p.Correct = mismatches == 0 && vw.errAnswers == 0 && vp.errAnswers == 0 && warm.failed == 0 && probed.failed == 0
	for _, v := range []verdict{vw, vt, vp} {
		for _, msg := range v.mismatches {
			p.Notes = append(p.Notes, "MISMATCH "+msg)
		}
	}
	for _, o := range []outcome{warm, timed, probed} {
		if o.firstFailure != "" {
			p.Notes = append(p.Notes, "FAILED "+o.firstFailure)
		}
	}
	if timed.attempted == p.Failed {
		return nil, fmt.Errorf("every one of %d timed requests failed", timed.attempted)
	}
	tf, notes := timing(st, timed, p.Failed, tailQuantile[o.workload])
	p.Throughput = tf.throughput
	p.Notes = append(p.Notes, notes...)
	p.Notes = append(p.Notes,
		fmt.Sprintf("timed: %d requests in %.3fs, %d failed (fail_frac %.4g), %d answer mismatches",
			timed.attempted, timed.wall.Seconds(), p.Failed, ratio(float64(p.Failed), float64(timed.attempted)), mismatches),
		fmt.Sprintf("predict answers by tier: %v; warm-up %d requests; %d cells and %d advise requests replayed",
			timed.sources, warm.attempted, len(runCells), len(advIDs)),
		"pred_err_pct: ground truth is RealSpeedupCtx, this repository's own simulated machine, not hardware")
	met := p.Metrics
	met["throughput_rps"] = tf.throughput
	met["latency_p50_ms"] = tf.p50
	met["latency_tail_ms"] = tf.tail
	met["pred_err_pct"] = errSum / float64(len(probes))
	met["alloc_kb_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(timed.attempted)
	met["heap_live_mb"] = float64(m2.HeapAlloc) / (1 << 20)

	if traced {
		layers(met, layerInputs{
			shots: st.timed, timed: timed, spans: rec.spans, s0: s0, s1: s1, r0: r0, r1: r1,
			replay: replay, times: times, setup: setup, verdict: vt, gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		}, &p.Notes)
	}
	return p, nil
}

// keepShare is the share of a pass's segments the timing figures come
// from (see trimmed).
const keepShare = 0.75

type timingFigures struct {
	throughput, p50, tail float64
}

// timing computes throughput, median and tail latency over the fastest
// keepShare of the pass's segments. q is the workload's tail percentile.
func timing(st stream, o outcome, failed int, q float64) (timingFigures, []string) {
	kept, dur, segs, keptSegs := trimmed(o.done, st.segment, keepShare, o.wall)
	answered, keptOK := 0, 0
	for _, r := range o.done {
		if r.ok {
			answered++
		}
	}
	lat := make([]float64, 0, len(kept))
	for _, r := range kept {
		if r.ok {
			keptOK++
		}
		lat = append(lat, r.rttMS)
	}
	sort.Float64s(lat)
	// 200 answers that carry err are known only in total: charge them to
	// the kept segments pro rata.
	ok := float64(keptOK) * ratio(float64(o.attempted-failed), float64(answered))
	tf := timingFigures{throughput: ok / dur.Seconds()}
	tf.p50, _, _ = percentile(lat, 0.5)
	var notes []string
	tail, beyond, tailOK := percentile(lat, q)
	for !tailOK && q > 0.5 {
		// Too few requests for the workload's tail percentile: report the
		// highest one that still has minBeyond samples past it, loudly,
		// rather than a figure that rests on a handful.
		notes = append(notes, fmt.Sprintf("WARNING: p%.3g has only %d samples beyond it; the tail falls back", 100*q, beyond))
		q -= 0.01
		tail, beyond, tailOK = percentile(lat, q)
	}
	tf.tail = tail
	notes = append(notes,
		fmt.Sprintf("timing over the fastest %d of %d segments of %d requests: %.3gs of %.3gs timed (whole run %.4g req/s)",
			keptSegs, segs, st.segment, dur.Seconds(), o.wall.Seconds(), float64(o.attempted-failed)/o.wall.Seconds()),
		fmt.Sprintf("latency: p50 over %d samples; tail is p%.3g with %d samples beyond it", len(lat), 100*q, beyond))
	return tf, notes
}
