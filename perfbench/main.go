// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the tocttou and tocttoud binaries built from the
// checkout, checks every output against an in-process reference, and
// prints each end-to-end metric with its unit, sample count, median and
// quartiles, ending with one JSON line. With -trace 1 it instead hosts
// the same work in-process, records spans around every layer's public
// calls, and reports the per-layer metrics. See README.md.
//
// Usage (from the checkout root; run.sh builds everything first):
//
//	bash perfbench/run.sh --workload cli-long-points --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --steady --runs 5 --seconds 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tocttou/internal/scenario"
)

// workload is one benchmark input and the path it drives.
type workload struct {
	name string
	// spec generates the workload's scenario file from the seed.
	spec func(seed int64) []byte
	// workers is tocttoud's -workers; cliPath drives the CLI instead.
	workers int
}

const (
	cliPath = -1
	// campaignResubmits is the closed-loop cached resubmits after each
	// tocttoud campaign: the fewest that give the printed resubmit
	// latency a p90 from one campaign alone (ten samples beyond it). No
	// gated metric includes them: campaign_s and cpu_s end with the
	// checked report, before the first resubmit.
	campaignResubmits = 100
)

var workloads = []workload{
	{name: "cli-long-points", spec: func(s int64) []byte { return longPointsSpec(s, false) }, workers: cliPath},
	{name: "served-many-points", spec: manyPointsSpec, workers: 0},
	{name: "fleet-long-points", spec: func(s int64) []byte { return longPointsSpec(s, false) }, workers: 2},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics the JSON result line carries with
// -trace 0: defined on every workload, so every run reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"campaign_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// Set-up starts sampled before the first campaign and again after every
// campaign, so set-up time is sampled across the whole window; each
// tocttoud campaign also contributes its own start.
const (
	setupStartsFirst = 5
	setupStartsEach  = 2
	minIterations    = 3
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fl.String("root", ".", "checkout root (holds .bench_build/bin)")
	name := fl.String("workload", "", "workload to run")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 15, "measurement window per run")
	trace := fl.Int("trace", 0, "1: traced in-process run reporting per-layer metrics")
	steady := fl.Bool("steady", false, "steadiness mode: two alternating sets of runs of every workload")
	runs := fl.Int("runs", 5, "runs per set and workload in -steady mode")
	tracedDir := fl.String("traced-child", "", "internal: run the traced in-process work for -workload in this directory")
	workerLog := fl.String("worker", "", "internal: serve as a fleet worker, logging protocol traffic to this directory")
	if err := fl.Parse(args); err != nil {
		return 2, err
	}
	if *workerLog != "" {
		return exitCode(workerMain(*workerLog))
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return 1, err
	}
	if *steady {
		return exitCode(steadyMain(absRoot, *runs, *seconds))
	}
	wl, err := findWorkload(*name)
	if err != nil {
		return 2, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1")
	}
	window := time.Duration(*seconds) * time.Second
	if *tracedDir != "" {
		return exitCode(tracedMain(*tracedDir, wl, window))
	}
	if err := becomeSubreaper(); err != nil {
		return 1, err
	}
	res, err := runWorkload(absRoot, wl, *seed, window, *trace == 1)
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return 0, nil
}

func exitCode(err error) (int, error) {
	if err != nil {
		return 1, err
	}
	return 0, nil
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload prepares the inputs and reference outside every timed
// interval, then measures either the untraced end-to-end metrics for the
// window or, traced, the per-layer metrics.
func runWorkload(root string, wl *workload, seed int64, window time.Duration, traced bool) (*result, error) {
	build := filepath.Join(root, ".bench_build")
	work := filepath.Join(build, "runs", fmt.Sprintf("%s-s%d-%d", wl.name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	b := newBench(filepath.Join(build, "bin"), work)
	spec := wl.spec(seed)
	b.specPath = filepath.Join(work, "spec.yaml")
	ref, points, err := reference(spec)
	if err != nil {
		return nil, fmt.Errorf("reference run of the %s spec for seed %d: %w", wl.name, seed, err)
	}
	b.want = expect{spec: spec, ref: ref, points: points}
	if err := os.WriteFile(b.specPath, spec, 0o644); err != nil {
		return nil, err
	}
	if wl.workers == cliPath {
		setup := longPointsSpec(seed, true)
		b.setupSpecPath = filepath.Join(work, "setup.yaml")
		if b.setupRef, _, err = reference(setup); err != nil {
			return nil, fmt.Errorf("reference run of the set-up spec: %w", err)
		}
		if err := os.WriteFile(b.setupSpecPath, setup, 0o644); err != nil {
			return nil, err
		}
	}
	printEnv(wl, seed, work)

	if traced {
		return runTraced(b, wl, window, filepath.Join(build, "traces", fmt.Sprintf("%s-s%d", wl.name, seed)))
	}

	// Campaigns until the window is spent, with set-up probes between.
	b.setup(wl, setupStartsFirst)
	start := time.Now()
	for i := 0; i < minIterations || time.Since(start) < window; i++ {
		b.iteration(wl)
		b.setup(wl, setupStartsEach)
	}
	return b.report(wl)
}

// reference computes the byte-exact report of spec in-process
// (scenario.Run + Render) and checks its assertions.
func reference(spec []byte) ([]byte, int, error) {
	s, err := scenario.LoadBytes("spec.yaml", spec)
	if err != nil {
		return nil, 0, err
	}
	out, err := scenario.Run(s, scenario.RunOptions{})
	if err != nil {
		return nil, 0, err
	}
	var buf strings.Builder
	if err := out.Render(&buf); err != nil {
		return nil, 0, err
	}
	if err := out.CheckAssertions(); err != nil {
		return nil, 0, err
	}
	return []byte(buf.String()), len(out.Results), nil
}

func printEnv(wl *workload, seed int64, work string) {
	fmt.Printf("perfbench %s seed=%d nproc=%d GOMAXPROCS=%d (env %q) go=%s data-dir-fs=%s\n",
		wl.name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), os.Getenv("GOMAXPROCS"), runtime.Version(), fsName(work))
}

// report prints every end-to-end metric and builds the result line. The
// tocttoud paths also print the metrics only they define (the CLI
// streams nothing and has no cache), which stay out of the result line:
// it carries the same metrics on every workload.
func (b *bench) report(wl *workload) (*result, error) {
	res := &result{Attempted: b.attempted, Failed: b.failed, Correct: b.failed == 0, Metrics: map[string]metricValue{}}
	fmt.Printf("operations: %d attempted, %d failed\n", b.attempted, b.failed)
	for _, m := range endToEnd {
		xs := b.samples[m.name]
		if len(xs) == 0 {
			return nil, fmt.Errorf("no successful sample of %s (%d of %d operations failed)", m.name, b.failed, b.attempted)
		}
		fmt.Printf("%-18s %-5s %s\n", m.name, m.unit, summarize(xs))
		res.Metrics[m.name] = metricValue{Value: quantile(xs, 0.5), Unit: m.unit}
	}
	if wl.workers == cliPath {
		return res, nil
	}
	gaps, resubmits := b.samples["point_gap_ms"], b.samples["resubmit_ms"]
	fmt.Printf("%-18s %-5s %s\n", "first_point_s", "s", summarize(b.samples["first_point_s"]))
	fmt.Printf("%-18s %-5s %s\n", "point_gap_ms", "ms", summarize(gaps))
	fmt.Printf("%-18s %-5s %s\n", "resubmit_ms", "ms", summarize(resubmits))
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"point_gap_p50_ms", gaps, 0.5}, {"point_gap_p90_ms", gaps, 0.9}, {"resubmit_p50_ms", resubmits, 0.5}} {
		v, used := percentile(p.xs, p.q)
		fmt.Printf("%-18s %-5s %.6g (p%g of n=%d)\n", p.name, "ms", v, used*100, len(p.xs))
	}
	return res, nil
}
