package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"prophet"
	"prophet/internal/server"
	"prophet/internal/workloads"
)

// prophetd loadgen hammers a running daemon with a deterministic mix of
// /v1/predict and /v1/sweep requests and reports status counts, cache
// behaviour and latency percentiles — enough to see the backpressure
// (429s under a small -max-inflight) and the cache warming up (second
// run of the same seed is nearly all hits).
//
// A 429 is not a failure: the generator honours the server's
// Retry-After advisory (capped by -max-backoff) for up to -max-retries
// attempts per request, the way a well-behaved client rides out
// backpressure. The exit status is non-zero on any transport failure and
// when no request at all was answered 200.
//
// With -addrs the same stream is spread round-robin over a replica
// fleet — the cluster scenario: per-replica counts expose a dead or
// refusing replica, and the shared estimate routing means the fleet's
// caches stay warm no matter which replica a request lands on.
//
//	prophetd loadgen -addr http://127.0.0.1:8057 -n 200 -c 8 \
//	    -bench MD-OMP,NPB-EP -sweep-frac 0.25 -seed 1
//	prophetd loadgen -addrs http://127.0.0.1:8057,http://127.0.0.1:8058 -n 500
func loadgenMain(args []string) int {
	fs := flag.NewFlagSet("prophetd loadgen", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "http://127.0.0.1:8057", "base URL of the daemon")
		addrsFlag  = fs.String("addrs", "", "comma-separated base URLs of a replica fleet (round-robin; overrides -addr)")
		n          = fs.Int("n", 200, "total requests to issue")
		c          = fs.Int("c", 8, "concurrent clients")
		bench      = fs.String("bench", "MD-OMP", `comma-separated workloads to exercise ("all" = every benchmark)`)
		sweepFrac  = fs.Float64("sweep-frac", 0.25, "fraction of requests that are sweeps (rest are predicts)")
		coresFlag  = fs.String("cores", "2,4,6,8,10,12", "core counts drawn from")
		seed       = fs.Int64("seed", 1, "request-mix seed (same seed = same request stream)")
		timeout    = fs.Duration("timeout", 30*time.Second, "per-request client timeout")
		maxRetries = fs.Int("max-retries", 3, "retry budget per request when the server answers 429")
		maxBackoff = fs.Duration("max-backoff", 2*time.Second, "cap on the Retry-After wait between 429 retries")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cores, err := prophet.ParseCores(*coresFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	names := workloads.Names()
	if *bench != "all" {
		names = names[:0]
		for _, b := range strings.Split(*bench, ",") {
			names = append(names, strings.TrimSpace(b))
		}
	}
	targets := []string{strings.TrimRight(*addr, "/")}
	if *addrsFlag != "" {
		targets = targets[:0]
		for _, a := range strings.Split(*addrsFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				targets = append(targets, strings.TrimRight(a, "/"))
			}
		}
		if len(targets) == 0 {
			fmt.Fprintln(os.Stderr, "loadgen: -addrs lists no usable URLs")
			return 2
		}
	}
	methods := []string{"ff", "amdahl", "critical-path", "suitability"}
	scheds := []string{"(static)", "(static,1)", "(dynamic,1)", "(guided)"}

	// Pre-generate the request stream so the worker split cannot change
	// the mix: same seed, same bodies and same per-replica assignment,
	// whatever -c is.
	type shot struct {
		target string
		path   string
		body   []byte
	}
	rng := rand.New(rand.NewSource(*seed))
	shots := make([]shot, *n)
	for i := range shots {
		name := names[rng.Intn(len(names))]
		target := targets[i%len(targets)]
		if rng.Float64() < *sweepFrac {
			body, _ := json.Marshal(map[string]any{
				"workload": name,
				"methods":  []string{methods[rng.Intn(2)]}, // ff | amdahl: cheap enough to hammer
				"scheds":   []string{scheds[rng.Intn(len(scheds))]},
				"cores":    cores,
			})
			shots[i] = shot{target: target, path: "/v1/sweep", body: body}
		} else {
			body, _ := json.Marshal(map[string]any{
				"workload": name,
				"request": map[string]any{
					"method":       methods[rng.Intn(len(methods))],
					"threads":      cores[rng.Intn(len(cores))],
					"sched":        scheds[rng.Intn(len(scheds))],
					"memory_model": rng.Intn(2) == 0,
				},
			})
			shots[i] = shot{target: target, path: "/v1/predict", body: body}
		}
	}

	type targetStats struct {
		requests, failures int
	}
	client := &http.Client{Timeout: *timeout}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		perStream = map[string][]time.Duration{}
		statuses  = map[int]int{}
		perTarget = map[string]*targetStats{}
		failures  int
		retried   int
	)
	for _, tgt := range targets {
		perTarget[tgt] = &targetStats{}
	}
	var wg sync.WaitGroup
	next := make(chan shot)
	workers := *c
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range next {
				var (
					resp *http.Response
					err  error
					lat  time.Duration
				)
				for attempt := 0; ; attempt++ {
					t0 := time.Now()
					resp, err = client.Post(sh.target+sh.path, "application/json", bytes.NewReader(sh.body))
					lat = time.Since(t0)
					if err != nil || resp.StatusCode != http.StatusTooManyRequests || attempt >= *maxRetries {
						break
					}
					// Backpressure: honour the server's advisory, capped
					// so a confused server cannot park the client.
					wait := retryAfter(resp.Header.Get("Retry-After"), attempt)
					if wait > *maxBackoff {
						wait = *maxBackoff
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					mu.Lock()
					retried++
					mu.Unlock()
					time.Sleep(wait)
				}
				mu.Lock()
				st := perTarget[sh.target]
				st.requests++
				if err != nil {
					failures++
					st.failures++
				} else {
					statuses[resp.StatusCode]++
					latencies = append(latencies, lat)
					if resp.StatusCode == http.StatusOK {
						// Bucket by serving tier so a cache (or surrogate)
						// hitting µs answers does not hide emulation tail
						// latency in one blended percentile stream.
						stream := "sweep"
						if sh.path == "/v1/predict" {
							if stream = resp.Header.Get(server.SourceHeader); stream == "" {
								stream = "unlabeled" // pre-source daemon
							}
						}
						perStream[stream] = append(perStream[stream], lat)
					}
				}
				mu.Unlock()
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	for _, sh := range shots {
		next <- sh
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)

	fmt.Printf("loadgen: %d requests in %v (%.0f req/s), %d clients\n",
		*n, wall.Round(time.Millisecond), float64(*n)/wall.Seconds(), workers)
	var codes []int
	for code := range statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Printf("  HTTP %d: %d\n", code, statuses[code])
	}
	if retried > 0 {
		fmt.Printf("  429 retries honoured: %d\n", retried)
	}
	if failures > 0 {
		fmt.Printf("  transport failures: %d\n", failures)
	}
	if len(targets) > 1 {
		for _, tgt := range targets {
			st := perTarget[tgt]
			fmt.Printf("  %s: %d requests, %d failures\n", tgt, st.requests, st.failures)
		}
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		pct := func(ls []time.Duration, p float64) time.Duration {
			return ls[int(p*float64(len(ls)-1))]
		}
		fmt.Printf("  latency p50 %v  p95 %v  p99 %v  max %v\n",
			pct(latencies, 0.50).Round(time.Microsecond), pct(latencies, 0.95).Round(time.Microsecond),
			pct(latencies, 0.99).Round(time.Microsecond), latencies[len(latencies)-1].Round(time.Microsecond))
		// One percentile line per serving tier, so the cache/surrogate
		// fast paths and the emulation path each show their own tail.
		// The aggregate line above is the fallback when a stream is
		// empty (or the daemon predates the source header).
		for _, stream := range []string{"cache", "surrogate", "emulated", "sweep", "unlabeled"} {
			ls := perStream[stream]
			if len(ls) == 0 {
				continue
			}
			sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
			fmt.Printf("    %-9s (%4d): p50 %v  p95 %v  p99 %v\n", stream, len(ls),
				pct(ls, 0.50).Round(time.Microsecond), pct(ls, 0.95).Round(time.Microsecond),
				pct(ls, 0.99).Round(time.Microsecond))
		}
	}
	if failures > 0 || statuses[http.StatusOK] == 0 {
		return 1
	}
	return 0
}

// retryAfter parses a Retry-After seconds value; a missing or malformed
// header falls back to a doubling base so retries still spread out.
func retryAfter(header string, attempt int) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 100 * time.Millisecond << uint(attempt)
}
