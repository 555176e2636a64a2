// Command prophetbench is the repository benchmark: it starts prophetd
// in-process (server.New + Load, its Handler behind an httptest loopback
// server), drives one of four fixed-seed closed-loop workloads from the
// same process with one client per CPU, checks every answer against the
// library, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash prophetbench/run.sh --workload cold --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. Every measured pass runs in a fresh child process of this
// binary: the library caches the calibrated memory model per process,
// so a second server in one process would skip calibration. README.md
// in this directory describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setupSamples is how many fresh processes measure set-up (server.New +
// Load) in a --trace 0 run, besides the timed pass's own.
const setupSamples = 3

// childLimit bounds one child process; the whole run must end within
// 180 s.
const childLimit = 150 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks bad command lines (exit 2).
type usageError struct{ error }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prophetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = fs.Int64("seed", 1, "request-stream seed")
		seconds  = fs.Float64("seconds", 15, "timed phase length")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		child    = fs.String("child", "", "internal: run one pass in this process (setup, timed, baseline or traced)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "prophetbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *child == "" && !known(*workload) {
		fmt.Fprintf(stderr, "prophetbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "prophetbench: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "prophetbench: --seconds must be positive\n")
		return 2
	}
	opts := passOptions{workload: *workload, seed: *seed, seconds: *seconds}
	var err error
	if *child != "" {
		err = runChild(*child, opts, stdout, stderr)
	} else {
		err = orchestrate(opts, *trace == 1, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "prophetbench: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
	return 0
}

func known(workload string) bool {
	for _, w := range workloadNames {
		if w == workload {
			return true
		}
	}
	return false
}

// passOptions are the inputs of one measured pass.
type passOptions struct {
	workload string
	seed     int64
	seconds  float64
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// orchestrate runs the passes of one benchmark run, each in a fresh
// child process, and prints the result.
func orchestrate(o passOptions, traced bool, stdout, stderr io.Writer) error {
	fmt.Fprintf(stdout, "prophetbench: workload %s, seed %d, %gs timed, %d clients\n", o.workload, o.seed, o.seconds, runtime.NumCPU())
	fmt.Fprintf(stdout, "host: %s\n", fingerprint())

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res := result{Metrics: map[string]metric{}}
	if !traced {
		timed, err := spawn(ctx, "timed", o, stderr)
		if err != nil {
			return err
		}
		setups := []float64{timed.Setup.SetupS}
		for i := 0; i < setupSamples; i++ {
			s, err := spawn(ctx, "setup", o, stderr)
			if err != nil {
				return err
			}
			setups = append(setups, s.Setup.SetupS)
		}
		fmt.Fprintf(stdout, "setup_s samples (fresh processes): %v\n", setups)
		timed.Metrics["setup_s"] = median(setups)
		res.fill(timed, endToEnd, stdout)
	} else {
		base, err := spawn(ctx, "baseline", o, stderr)
		if err != nil {
			return err
		}
		tr, err := spawn(ctx, "traced", o, stderr)
		if err != nil {
			return err
		}
		tr.Metrics["trace.overhead_ratio"] = ratio(base.Throughput, tr.Throughput)
		fmt.Fprintf(stdout, "tracing overhead: untraced %.1f req/s, traced %.1f req/s\n", base.Throughput, tr.Throughput)
		res.fill(tr, perLayer, stdout)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// fill copies a pass's metrics of one table into the result, printing
// each by name and unit with its context notes.
func (r *result) fill(p *passResult, table []metricDef, stdout io.Writer) {
	r.Correct, r.Attempted, r.Failed = p.Correct, p.Attempted, p.Failed
	for _, note := range p.Notes {
		fmt.Fprintf(stdout, "  %s\n", note)
	}
	for _, d := range table {
		v, ok := p.Metrics[d.name]
		if !ok {
			panic("metric not computed: " + d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", d.name, v, d.unit)
	}
}

// spawn runs one pass in a fresh child process and decodes its result
// line. The child is killed if ctx ends first; spawn always waits for
// it to exit.
func spawn(ctx context.Context, kind string, o passOptions, stderr io.Writer) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", kind, "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds))
	cmd.Stderr = stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass: %w", kind, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var p passResult
	if err := json.Unmarshal([]byte(last), &p); err != nil {
		return nil, fmt.Errorf("%s pass: bad result line %.200q: %v", kind, last, err)
	}
	return &p, nil
}

// fingerprint describes the host and build a run's figures belong to.
func fingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return fmt.Sprintf("cpu %q, nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}
