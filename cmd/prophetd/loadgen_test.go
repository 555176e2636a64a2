package main

import (
	"context"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"prophet"
	"prophet/internal/server"
)

// TestLoadgenPerStreamPercentiles runs the load generator against an
// in-process daemon with the surrogate armed and checks the report
// splits latency percentiles per serving tier (cache vs emulated, and
// surrogate once warm) instead of blending them into one stream.
func TestLoadgenPerStreamPercentiles(t *testing.T) {
	srv := server.New(server.Config{
		Workloads:          []string{"NPB-EP"},
		Cores:              []int{2, 4},
		DisableMemoryModel: true,
		Surrogate:          &prophet.SurrogateConfig{MinSamples: 8, RefitEvery: 4, ShadowEvery: -1, MaxRelErr: 0.5, Seed: 1},
	})
	if err := srv.Load(context.Background()); err != nil {
		t.Fatalf("Load: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	out := captureStdout(t, func() {
		code := loadgenMain([]string{
			"-addr", ts.URL, "-n", "60", "-c", "4",
			"-bench", "NPB-EP", "-cores", "2,4", "-sweep-frac", "0.2", "-seed", "1",
		})
		if code != 0 {
			t.Errorf("loadgen exit %d, want 0", code)
		}
	})
	if !strings.Contains(out, "latency p50") {
		t.Fatalf("no aggregate latency line in:\n%s", out)
	}
	// The 60-shot seed-1 stream repeats cells, so the cache tier must
	// fill; the emulated tier serves the first occurrences.
	for _, stream := range []string{"cache", "emulated"} {
		if !strings.Contains(out, stream+" ") {
			t.Errorf("no %q percentile stream in:\n%s", stream, out)
		}
	}
}

// TestLoadgenBenchAllAndExitCode: "-bench all" expands to every
// registered workload (not a workload literally named "all"), and a run
// in which no request is answered 200 exits non-zero.
func TestLoadgenBenchAllAndExitCode(t *testing.T) {
	srv := server.New(server.Config{Cores: []int{2}, DisableMemoryModel: true})
	if err := srv.Load(context.Background()); err != nil {
		t.Fatalf("Load: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	run := func(bench string) (int, string) {
		var code int
		out := captureStdout(t, func() {
			code = loadgenMain([]string{
				"-addr", ts.URL, "-n", "16", "-c", "2", "-bench", bench,
				"-cores", "2", "-sweep-frac", "0", "-seed", "1",
			})
		})
		return code, out
	}
	if code, out := run("all"); code != 0 || strings.Contains(out, "HTTP 404") || !strings.Contains(out, "HTTP 200: 16") {
		t.Errorf("-bench all: exit %d, want 0 and sixteen 200s:\n%s", code, out)
	}
	if code, out := run("no-such-workload"); code == 0 {
		t.Errorf("no 200 answered, yet exit 0:\n%s", out)
	}
}

func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	defer func() {
		os.Stdout = old
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}
