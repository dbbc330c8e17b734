// Command perfbench is milan's benchmark of the admission path it serves.
//
// It runs one named workload from a seed, checks every output, and prints
// each metric by name and unit; the last line of its output is one JSON
// object.  With --trace 0 it measures the end-to-end metrics with the
// plane wired exactly as junctiond wires it; with --trace 1 it installs
// timing wrappers at the layer seams and prints the per-layer metrics.
// See README.md in this directory.
//
//	perfbench --workload served-durable --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// Exit codes.
const (
	exitOK        = 0
	exitIncorrect = 1 // a correctness check failed
	exitUsage     = 2 // bad arguments or a set-up error
	exitInvalid   = 3 // a validity guard failed: nothing was measured
)

func benchMain(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: served-durable, served-nosync or plan-deep")
	seed := fl.Int64("seed", 1, "input seed")
	secs := fl.Float64("seconds", 20, "measured seconds")
	trace := fl.Int("trace", 0, "1 installs the timing wrappers and prints per-layer metrics")
	dir := fl.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for logs and spans")
	if err := fl.Parse(args); err != nil {
		return exitUsage
	}
	sp, err := findSpec(*name)
	if err != nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (%v)\n", err)
		return exitUsage
	}
	runDir := filepath.Join(*dir, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return exitUsage
	}
	defer os.RemoveAll(runDir)

	fmt.Println(fingerprint(sp, runDir))
	d := time.Duration(*secs * float64(time.Second))
	var o *outcome
	switch {
	case sp.served && *trace == 0:
		o, err = servedRun(sp, *seed, d, runDir)
	case sp.served:
		o, err = servedTraced(sp, *seed, d, runDir)
	case *trace == 0:
		o, err = deepRun(sp, *seed, d)
	default:
		o, err = deepTraced(sp, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return exitUsage
	}
	if *trace == 0 {
		o.gate = gated
	}
	return o.finish()
}

// gated names the end-to-end metrics the result line of an untraced run
// carries: the end_to_end list of BENCHMARK.json.  The others are printed
// but not gated, because their run-to-run spread on a shared 2-vCPU host
// is wider than any bound a regression gate could use (see README.md).
var gated = map[string]bool{"admit_ratio": true, "utilization": true, "setup_s": true}

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects a run's metrics, correctness checks and validity guards.
type outcome struct {
	metrics   map[string]metric
	gate      map[string]bool // the metrics the result line carries; nil for all
	attempted int
	failed    int
	problems  []string // failed correctness checks
	invalid   []string // failed validity guards
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

// check records a correctness check; a failure counts as a failed
// operation and fails the run.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
		o.failed++
	}
}

// guard records a validity guard; a failure makes the run invalid.
func (o *outcome) guard(ok bool, format string, args ...any) {
	if !ok {
		o.invalid = append(o.invalid, fmt.Sprintf(format, args...))
	}
}

// count adds a phase's operations and their failures.
func (o *outcome) count(t tally) {
	o.attempted += t.sent
	o.failed += t.failed + t.badGrant
	if t.failed+t.badGrant > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%d operations failed and %d grants broke the admission guarantee; first: %v",
			t.failed, t.badGrant, t.firstErr))
	}
}

// finish prints the metrics, the checks and the result line, and returns
// the exit code.
func (o *outcome) finish() int {
	if len(o.invalid) > 0 {
		for _, s := range o.invalid {
			fmt.Println("INVALID RUN:", s)
		}
		return exitInvalid
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	carried := make(map[string]metric)
	for _, n := range names {
		m := o.metrics[n]
		note := ""
		if o.gate == nil || o.gate[n] {
			carried[n] = m
		} else {
			note = " (printed, not gated)"
		}
		fmt.Printf("%-40s %14.6g %s%s\n", n, m.Value, m.Unit, note)
	}
	if o.attempted > 0 {
		fmt.Printf("%-40s %14.6f ratio (%d failed of %d operations)\n", "error_rate", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	}
	for _, s := range o.problems {
		fmt.Println("CHECK FAILED:", s)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.problems) == 0, max(o.attempted, 1), o.failed, carried})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return exitUsage
	}
	fmt.Println(string(line))
	if len(o.problems) > 0 {
		return exitIncorrect
	}
	return exitOK
}
