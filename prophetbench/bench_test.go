package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestStreamSameSeedSameBodies: a stream depends on its seed alone, and
// the closed-loop driver sends exactly its first n requests whatever the
// client count.
func TestStreamSameSeedSameBodies(t *testing.T) {
	for _, w := range workloadNames {
		a, err := buildStream(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildStream(w, 7)
		c, _ := buildStream(w, 8)
		if !sameBodies(a.warmup, b.warmup) || !sameBodies(a.timed, b.timed) {
			t.Errorf("%s: seed 7 built two different streams", w)
		}
		if sameBodies(a.timed, c.timed) {
			t.Errorf("%s: seeds 7 and 8 built the same stream", w)
		}
	}

	st, _ := buildStream("cold", 3)
	const n = 150
	var want []string
	for _, sh := range st.timed[:n] {
		want = append(want, string(sh.body))
	}
	sort.Strings(want)
	for _, clients := range []int{1, 2, 5} {
		var mu sync.Mutex
		var got []string
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			got = append(got, string(body))
			mu.Unlock()
			w.Write([]byte("{}"))
		}))
		d := &driver{client: ts.Client(), base: ts.URL, clients: clients}
		out := d.run(st.timed, n, time.Time{})
		ts.Close()
		sort.Strings(got)
		if out.attempted != n || len(got) != n {
			t.Fatalf("%d clients: attempted %d, server saw %d, want %d", clients, out.attempted, len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d clients sent a different request stream", clients)
			}
		}
	}
}

func sameBodies(a, b []shot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

// TestPercentileNeedsTenBeyond: a percentile is reportable only with at
// least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		v      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{1100, 0.99, 1089, 11, true},
		{100, 0.90, 90, 10, true},
		{99, 0.90, 90, 9, false},
		{3, 0.5, 2, 1, false},
		{0, 0.5, 0, 0, false},
	} {
		v, beyond, ok := percentile(sample(tc.n), tc.p)
		if v != tc.v || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("n=%d p%g: got (%g, %d, %v), want (%g, %d, %v)", tc.n, 100*tc.p, v, beyond, ok, tc.v, tc.beyond, tc.ok)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONAgrees: the metric tables, the workload list and
// BENCHMARK.json name the same things, and every name is well formed.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if !equal(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wls, workloadNames)
	}
	for _, tc := range []struct {
		table string
		json  []struct{ Name, Unit string }
		defs  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var a, b []string
		for _, m := range tc.json {
			a = append(a, m.Name+" "+m.Unit)
		}
		for _, d := range tc.defs {
			b = append(b, d.name+" "+d.unit)
		}
		if !equal(a, b) {
			t.Errorf("%s: BENCHMARK.json has %v, benchmark emits %v", tc.table, a, b)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPassEmitsEveryMetric runs one short traced pass end to end:
// every answer checks out and every metric of both tables (but the
// tracing overhead, which the orchestrator adds from two passes) is
// computed.
func TestPassEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("loads eight profiles twice and runs the server")
	}
	p, err := measure(context.Background(), passOptions{workload: "advise", seed: 1, seconds: 0.3}, "traced")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Correct || p.Failed != 0 || p.Attempted == 0 {
		t.Fatalf("correct %v, attempted %d, failed %d: %v", p.Correct, p.Attempted, p.Failed, p.Notes)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		_, ok := p.Metrics[d.name]
		if want := d.name != "setup_s" && d.name != "trace.overhead_ratio"; ok != want {
			t.Errorf("metric %s: computed %v, want %v", d.name, ok, want)
		}
	}
	if p.Setup.CalibrateMS <= 0 {
		t.Errorf("set-up did not calibrate: %+v", p.Setup)
	}
}
