package prophet

import (
	"context"
	"errors"
	"fmt"

	"prophet/internal/clock"
	"prophet/internal/machine"
	"prophet/internal/obs"
	"prophet/internal/surrogate"
	"prophet/internal/sweep"
)

// Surrogate is the learned surrogate predictor (internal/surrogate): a
// k-NN / boosted-stumps model over deterministic request features that
// answers hot-tier predictions in microseconds when its cross-validated
// confidence clears the configured bound, and falls back to full
// emulation — feeding the exact result back as training data —
// otherwise. One Surrogate may be shared by any number of profiles and
// goroutines; arm it per profile through Options.Surrogate.
type Surrogate = surrogate.Predictor

// SurrogateConfig tunes a Surrogate; see the field docs in
// internal/surrogate. The zero value selects the defaults (1024-sample
// stores, K=8, 5% confidence bound, shadow sampling every 8th hit).
type SurrogateConfig = surrogate.Config

// NewSurrogate builds a surrogate predictor.
func NewSurrogate(cfg SurrogateConfig) *Surrogate {
	return surrogate.New(cfg)
}

// surrogateInit lazily computes the profile's request-independent
// surrogate inputs: tree-shape/counter stats and the partition key
// (the tree fingerprint, so re-profiled machine variants train in their
// own partitions while tree-only variants share one).
func (p *Profile) surrogateInit() {
	p.surrOnce.Do(func() {
		ts := surrogate.Stats(p.Tree, p.Counters)
		p.surrStats = &ts
		p.surrKey = fmt.Sprintf("tree:%016x", ts.Fingerprint)
	})
}

// SurrogateKey returns the profile's surrogate partition key. External
// drivers (the prediction server) may extend it with their own workload
// identity; the library's own feedback path uses it as-is.
func (p *Profile) SurrogateKey() string {
	p.surrogateInit()
	return p.surrKey
}

// SurrogateFeatures returns the deterministic feature vector the
// surrogate uses for req against this profile: cached tree stats, the
// request scalars, and the target machine spec (req.Machine when named
// and registered, the profile's own machine otherwise). Callers should
// normalize req.Threads first — the vector encodes the thread count as
// given.
func (p *Profile) SurrogateFeatures(req Request) []float64 {
	p.surrogateInit()
	spec := p.opts.Machine.Spec
	if req.Machine != "" {
		if s, err := machine.ParseSpec(req.Machine); err == nil {
			spec = s
		}
	}
	rf := surrogate.RequestFeatures{
		Method:      uint8(req.Method),
		Threads:     req.Threads,
		Paradigm:    uint8(req.Paradigm),
		SchedKind:   uint8(req.Sched.Kind),
		SchedChunk:  req.Sched.Chunk,
		MemoryModel: req.MemoryModel && p.Model != nil,
	}
	return surrogate.Vector(p.surrStats, rf, spec)
}

// surrogateQuery is the EstimateCtx-side view: by the time the hook
// runs, machine-variant recursion has already resolved req.Machine, so
// the profile's own spec is the target.
func (p *Profile) surrogateQuery(req Request) (key string, vec []float64) {
	return p.SurrogateKey(), p.SurrogateFeatures(req)
}

// surrogateEstimate wraps a surrogate prediction in the wire format:
// the same fields an emulated estimate carries, plus Source set to
// SourceSurrogate (emulated estimates omit it, keeping their payloads
// byte-identical to the pre-surrogate format).
func surrogateEstimate(req Request, speedup float64, serial clock.Cycles) Estimate {
	est := Estimate{Request: req, Speedup: speedup, Source: SourceSurrogate}
	if speedup > 0 {
		est.Time = clock.Cycles(float64(serial)/speedup + 0.5)
	}
	return est
}

// SeedSurrogateCtx pre-seeds the surrogate's training store from a
// request grid by emulating every cell on a bounded worker pool —
// typically the grid of a completed sweep, so interactive traffic starts
// against a warm store. The results then feed the surrogate in cell
// order, exactly as a serial run of EstimateCtx over reqs would: cells
// the surrogate already answers confidently by then are not re-observed,
// everything else is. The trained model therefore does not depend on the
// worker count or on which cell finished first. Once ctx fires no new
// cell starts. The first cell error (or the cancellation) is returned;
// cells before it in the grid stay in the store.
func (p *Profile) SeedSurrogateCtx(ctx context.Context, reqs []Request, workers int) error {
	sg := p.opts.Surrogate
	if sg == nil {
		return errors.New("prophet: SeedSurrogateCtx needs Options.Surrogate armed")
	}
	type cell struct {
		prof    *Profile // the profile owning the cell's machine
		req     Request  // as that profile sees it
		speedup float64
	}
	met := p.opts.Observer.Metrics
	outs := sweep.RunCtx(ctx, sweep.Engine{Workers: workers, Metrics: met},
		len(reqs), func(ctx context.Context, i int) (c cell, err error) {
			defer recoverToError(&err)
			c.req = reqs[i]
			if c.prof, err = p.forMachine(ctx, c.req.Machine); err != nil {
				return c, err
			}
			if c.prof != p {
				c.req.Machine = ""
			}
			c.req.Threads = c.prof.threadsOf(c.req)
			tm := met.StartTimer(obs.MStageEmulate)
			defer tm.Stop()
			c.speedup, err = c.prof.emulate(ctx, c.req)
			return c, err
		})
	for _, o := range outs {
		if o.Err != nil {
			return o.Err
		}
		c := o.Value
		key, vec := c.prof.surrogateQuery(c.req)
		if val, ok, shadow := sg.Predict(key, vec); ok {
			if !shadow {
				continue
			}
			sg.RecordShadow(val, c.speedup)
		}
		sg.Observe(key, vec, c.speedup)
	}
	return nil
}
