package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prophet/internal/server"
)

// seqHeader carries a request's sequence number in traced runs, so the
// handler span can be matched to the client's round trip.
const seqHeader = "X-Bench-Seq"

// answer is one distinct response body seen for a stream index.
type answer struct {
	status int
	source string
	body   []byte
	n      int // requests that got it
}

// outcome is what one closed-loop pass recorded.
type outcome struct {
	attempted, failed int
	firstFailure      string // the first failed request and its answer
	wall              time.Duration
	// done records, per request, its place in the send order, when it
	// completed, its round trip and whether it was answered 200.
	done []doneRec
	// answers holds, per stream index, every distinct response seen.
	answers map[int][]answer
	// sources counts /v1/predict answers by X-Prophet-Source.
	sources map[string]int
	// seqs maps a traced request's sequence number to its stream index,
	// round trip (ms) and answering tier.
	seqs map[int64]seqRec
}

type doneRec struct {
	i     int
	at    time.Duration
	rttMS float64
	ok    bool
}

type seqRec struct {
	idx    int
	rttMS  float64
	source string
}

// spanRecorder wraps the server's handler and records each traced
// request's ServeHTTP span, keyed by its sequence number.
type spanRecorder struct {
	h     http.Handler
	mu    sync.Mutex
	spans map[int64]float64 // ms
}

func (s *spanRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.h.ServeHTTP(w, r)
	d := time.Since(t0)
	if seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64); err == nil {
		s.mu.Lock()
		s.spans[seq] = float64(d.Nanoseconds()) / 1e6
		s.mu.Unlock()
	}
}

// driver sends a stream through a server from a fixed number of
// closed-loop clients: each client sends its next request only after
// the previous answer is in.
type driver struct {
	client  *http.Client
	base    string
	clients int
	traced  bool
	seq     atomic.Int64 // traced sequence numbers, unique across passes
}

// run sends shots in order from d.clients clients until every shot was
// sent (n shots; indices wrap modulo len(shots)) or, with a non-zero
// deadline, until the deadline passes. Requests are handed out by one
// shared counter, so which requests are sent never depends on the
// client count.
func (d *driver) run(shots []shot, n int, deadline time.Time) outcome {
	out := outcome{answers: map[int][]answer{}, sources: map[string]int{}, seqs: map[int64]seqRec{}}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var done []doneRec
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					break
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				idx := i % len(shots)
				sh := shots[idx]
				req, err := http.NewRequest(http.MethodPost, d.base+sh.path, bytes.NewReader(sh.body))
				if err != nil {
					panic(err) // fixed URL and method: cannot fail
				}
				req.Header.Set("Content-Type", "application/json")
				var seq int64
				if d.traced {
					seq = d.seq.Add(1)
					req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
				}
				t0 := time.Now()
				resp, err := d.client.Do(req)
				status := 0
				source := ""
				buf.Reset()
				if err == nil {
					_, err = io.Copy(&buf, resp.Body)
					resp.Body.Close()
					status = resp.StatusCode
					source = resp.Header.Get(server.SourceHeader)
				}
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				done = append(done, doneRec{i: i, at: time.Since(start), rttMS: ms, ok: err == nil && status == http.StatusOK})

				mu.Lock()
				out.attempted++
				if err != nil || status != http.StatusOK {
					out.failed++
					if out.firstFailure == "" {
						out.firstFailure = fmt.Sprintf("%s %s: status %d, error %v, body %.200s", sh.path, sh.body, status, err, buf.Bytes())
					}
				}
				if sh.path == "/v1/predict" && source != "" {
					out.sources[source]++
				}
				if d.traced {
					out.seqs[seq] = seqRec{idx: idx, rttMS: ms, source: source}
				}
				if err == nil {
					out.answers[idx] = noteAnswer(out.answers[idx], status, source, buf.Bytes())
				}
				mu.Unlock()
			}
			mu.Lock()
			out.done = append(out.done, done...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// noteAnswer adds body to the distinct answers seen for one index,
// copying it only when it is new.
func noteAnswer(seen []answer, status int, source string, body []byte) []answer {
	for i := range seen {
		if a := &seen[i]; a.status == status && a.source == source && bytes.Equal(a.body, body) {
			a.n++
			return seen
		}
	}
	return append(seen, answer{status: status, source: source, body: append([]byte(nil), body...), n: 1})
}
