package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"prophet"
	"prophet/internal/obs"
	"prophet/internal/workloads"
)

// reference is an identically loaded copy of the server's profiles,
// answering every question directly through the library — the oracle
// the served answers are checked against. Its registry is its own, so
// replay counts never mix with the server's.
type reference struct {
	profs   map[string]*prophet.Profile
	metrics *obs.Registry
}

func loadReference(ctx context.Context) (*reference, error) {
	ref := &reference{profs: map[string]*prophet.Profile{}, metrics: &obs.Registry{}}
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := prophet.ProfileProgramCtx(ctx, w.Program, &prophet.Options{
			ThreadCounts: prophet.DefaultThreadCounts(),
			Observer:     prophet.Observer{Metrics: ref.metrics},
		})
		if err != nil {
			return nil, fmt.Errorf("reference load %s: %w", name, err)
		}
		ref.profs[name] = p
	}
	return ref, nil
}

// cellID names one emulated cell: workload and request.
type cellID struct {
	workload string
	req      prophet.Request
}

// replayed is a cell's exact answer and how long the library took to
// compute it.
type replayed struct {
	est prophet.Estimate
	dur time.Duration
}

type adviseID struct {
	workload string
	cores    string
	method   prophet.Method
}

// cellTimes accumulates how long the library took per cell, by method:
// the replay spans the per-layer FF and Synthesizer figures come from.
type cellTimes struct {
	mu  sync.Mutex
	n   map[prophet.Method]int
	sum map[prophet.Method]time.Duration
}

func (c *cellTimes) add(m prophet.Method, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.n == nil {
		c.n, c.sum = map[prophet.Method]int{}, map[prophet.Method]time.Duration{}
	}
	c.n[m]++
	c.sum[m] += d
	c.mu.Unlock()
}

// parallel runs f(0..n-1) on workers goroutines.
func parallel(n, workers int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// replay recomputes every distinct cell through Profile.EstimateCtx on
// workers goroutines, adding each cell's time to times (nil: untimed).
func (r *reference) replay(ctx context.Context, cells []cellID, workers int, times *cellTimes, into map[cellID]replayed) {
	out := make([]replayed, len(cells))
	parallel(len(cells), workers, func(i int) {
		t0 := time.Now()
		est, _ := r.profs[cells[i].workload].EstimateCtx(ctx, cells[i].req)
		d := time.Since(t0)
		times.add(cells[i].req.Method, d)
		out[i] = replayed{est: est, dur: d}
	})
	for i, c := range cells {
		into[c] = out[i]
	}
}

// advise recomputes every distinct advise request through
// Profile.AdviseCtx and encodes it exactly as the server does. The
// estimator is the library's default, prof.EstimateCtx, with each
// cell's time added to times.
func (r *reference) advise(ctx context.Context, ids []adviseID, cores map[adviseID][]int, workers int, times *cellTimes) map[adviseID][]byte {
	out := make([][]byte, len(ids))
	timed := func(ctx context.Context, _ string, prof *prophet.Profile, req prophet.Request) (prophet.Estimate, error) {
		t0 := time.Now()
		est, err := prof.EstimateCtx(ctx, req)
		times.add(req.Method, time.Since(t0))
		return est, err
	}
	parallel(len(ids), workers, func(i int) {
		id := ids[i]
		adv, _ := r.profs[id.workload].AdviseCtx(ctx, &prophet.AdviseOptions{
			Threads: cores[id], Method: id.method, Workers: 1, Estimator: timed,
		})
		out[i] = indentJSON(struct {
			Workload string         `json:"workload"`
			Advice   prophet.Advice `json:"advice"`
		}{id.workload, adv})
	})
	m := make(map[adviseID][]byte, len(ids))
	for i, id := range ids {
		m[id] = out[i]
	}
	return m
}

// indentJSON encodes v as the server's writeJSON does: two-space
// indent and a trailing newline — for an Estimate that is exactly
// json.MarshalIndent plus the newline.
func indentJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// verdict is what checking a pass's answers found.
type verdict struct {
	mismatches []string // one line per wrong answer, capped
	nMismatch  int
	errAnswers int // 200 answers that carry err, counted per request
	// relErrPct holds, per /v1/predict answer (weighted by requests),
	// the relative error of the served speedup against the exact
	// emulator: 0 unless the surrogate served it.
	relErrPct []float64
	// regions and regionErrs count the region experiments of /v1/advise
	// answers and those that carry an error, per request.
	regions, regionErrs int
	// served maps a probe's stream index to the served speedup.
	served map[int]float64
}

func (v *verdict) mismatch(format string, args ...any) {
	v.nMismatch++
	if len(v.mismatches) < 5 {
		v.mismatches = append(v.mismatches, fmt.Sprintf(format, args...))
	}
}

// check compares every answer of a pass with the reference. Emulated
// and cached answers must be byte-identical to the library's; surrogate
// answers must echo the request and are scored by relative error.
func check(v *verdict, shots []shot, o outcome, cells map[cellID]replayed, advice map[adviseID][]byte) {
	for idx, answers := range o.answers {
		sh := shots[idx]
		for _, a := range answers {
			if a.status != 200 {
				continue // counted as failed by the driver
			}
			switch sh.path {
			case "/v1/predict":
				ref := cells[cellID{sh.workload, sh.cells[0]}]
				if ref.est.Err != nil {
					v.errAnswers += a.n
				}
				checkEstimate(v, a.body, ref.est, a.n, fmt.Sprintf("predict %s", sh.body))
				if v.served != nil {
					var est prophet.Estimate
					if json.Unmarshal(a.body, &est) == nil {
						v.served[idx] = est.Speedup
					}
				}
			case "/v1/sweep":
				var resp struct {
					Outcomes []struct {
						Index   int             `json:"index"`
						Value   json.RawMessage `json:"value"`
						Err     string          `json:"err"`
						Skipped bool            `json:"skipped"`
					} `json:"outcomes"`
				}
				if err := json.Unmarshal(a.body, &resp); err != nil || len(resp.Outcomes) != len(sh.cells) {
					v.mismatch("sweep %s: bad body %.200s", sh.body, a.body)
					continue
				}
				failed := false
				for i, out := range resp.Outcomes {
					ref := cells[cellID{sh.workload, sh.cells[i]}]
					if out.Err != "" || out.Skipped || ref.est.Err != nil {
						failed = true
					}
					if out.Index != i {
						v.mismatch("sweep %s: outcome %d has index %d", sh.body, i, out.Index)
					}
					checkEstimate(v, out.Value, ref.est, 0, fmt.Sprintf("sweep %s cell %d", sh.body, i))
				}
				if failed {
					v.errAnswers += a.n
				}
			case "/v1/advise":
				want := advice[adviseKey(sh)]
				if !bytes.Equal(a.body, want) {
					v.mismatch("advise %s: body differs from Profile.AdviseCtx", sh.body)
				}
				// A failed advisor answers 200 with advice.err set; a
				// failed region experiment only marks its own region.
				var resp struct {
					Advice struct {
						Err     string `json:"err"`
						Regions []struct {
							Err string `json:"err"`
						} `json:"regions"`
					} `json:"advice"`
				}
				if err := json.Unmarshal(a.body, &resp); err != nil {
					v.mismatch("advise %s: undecodable answer", sh.body)
					continue
				}
				if resp.Advice.Err != "" {
					v.errAnswers += a.n
				}
				for _, r := range resp.Advice.Regions {
					v.regions += a.n
					if r.Err != "" {
						v.regionErrs += a.n
					}
				}
			}
		}
	}
}

// checkEstimate checks one served estimate. body is the whole response
// (n > 0: a /v1/predict, weighted by n requests) or a sweep outcome's
// compact value (n == 0).
func checkEstimate(v *verdict, body []byte, ref prophet.Estimate, n int, what string) {
	var got prophet.Estimate
	if err := json.Unmarshal(body, &got); err != nil {
		v.mismatch("%s: undecodable answer %.200s", what, body)
		return
	}
	if got.Source == prophet.SourceSurrogate {
		if got.Request != ref.Request || ref.Speedup <= 0 {
			v.mismatch("%s: surrogate answer for %+v, want %+v", what, got.Request, ref.Request)
			return
		}
		e := 100 * math.Abs(got.Speedup-ref.Speedup) / ref.Speedup
		for i := 0; i < n; i++ {
			v.relErrPct = append(v.relErrPct, e)
		}
		return
	}
	want := indentJSON(ref)
	if n == 0 {
		// A sweep outcome's value sits indented inside the response:
		// compare compact forms.
		var b, w bytes.Buffer
		if json.Compact(&b, body) == nil && json.Compact(&w, want) == nil {
			body, want = b.Bytes(), w.Bytes()
		}
	}
	if !bytes.Equal(body, want) {
		v.mismatch("%s: served %.300s, library %.300s", what, body, want)
		return
	}
	for i := 0; i < n; i++ {
		v.relErrPct = append(v.relErrPct, 0)
	}
}

func adviseKey(sh shot) adviseID {
	return adviseID{workload: sh.workload, cores: fmt.Sprint(sh.cores), method: sh.method}
}
