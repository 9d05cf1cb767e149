package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"tocttou/internal/campaignd"
	"tocttou/internal/scenario"
)

func TestSpecGeneratorsAreDeterministic(t *testing.T) {
	gens := map[string]func(int64) []byte{
		"long":  func(s int64) []byte { return longPointsSpec(s, false) },
		"setup": func(s int64) []byte { return longPointsSpec(s, true) },
		"many":  manyPointsSpec,
	}
	wantPoints := map[string]int{"long": longPoints, "setup": 1, "many": manyPoints}
	for name, gen := range gens {
		for _, seed := range []int64{1, 2, 7, heldOutSeed} {
			a, b := gen(seed), gen(seed)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s seed %d: two calls gave different bytes", name, seed)
			}
			if bytes.Equal(a, gen(seed+1)) {
				t.Errorf("%s: seeds %d and %d gave the same spec", name, seed, seed+1)
			}
			spec, err := scenario.LoadBytes("spec.yaml", a)
			if err != nil {
				t.Fatalf("%s seed %d: %v\n%s", name, seed, err, a)
			}
			c, err := scenario.Compile(spec)
			if err != nil {
				t.Fatalf("%s seed %d: compile: %v", name, seed, err)
			}
			if len(c.Points) != wantPoints[name] {
				t.Errorf("%s seed %d: %d points, want %d", name, seed, len(c.Points), wantPoints[name])
			}
		}
	}
}

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		q, want float64
	}{
		{1000, 0.99, 0.99},
		{999, 0.99, 1 - 10.0/999},
		{100, 0.9, 0.9},
		{100, 0.99, 0.9},
		{500, 0.98, 0.98},
		{19, 0.98, 0.5}, // too few for any upper tail: the median
		{0, 0.9, 0.5},
	} {
		if got := tailQuantile(tc.n, tc.q); got != tc.want {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{20, 57, 100, 101, 250, 999, 1000, 4000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		for _, q := range []float64{0.9, 0.98, 0.99, 0.999} {
			v, used := percentile(xs, q)
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if used > 0.5 && beyond < minBeyond {
				t.Errorf("n=%d q=%v: p%v has %d samples beyond it", n, q, used*100, beyond)
			}
		}
	}
	s := summarize(make([]float64, 99))
	if s.TailQ != 0.75 {
		t.Errorf("summary of 99 samples picked p%v, want p75", s.TailQ*100)
	}
}

func TestSelfTimeIsDurationMinusCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},   // overlaps a: union 10..40
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // overruns the parent: 90..100 counts
		{ID: 5, Parent: 2, Name: "a1", Start: 12, End: 18},  // grandchild: only a's business
		{ID: 6, Parent: 1, Name: "d", Start: 150, End: 160}, // outside the parent entirely
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 30 - 10, 2: 20 - 6, 3: 20, 4: 30, 5: 6, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	r := newRecorder()
	root := r.begin("root", nil)
	child := r.begin("child", root)
	time.Sleep(2 * time.Millisecond)
	child.end()
	root.end()
	self = selfTimes(r.spans)
	if rs, c := self[root.s.ID], r.spans[0]; rs != (root.s.End-root.s.Start)-(c.End-c.Start) {
		t.Errorf("recorded root self time %d, want duration minus child", rs)
	}
	if child.s.Trace != root.s.Trace {
		t.Errorf("child trace %d, want the root's %d", child.s.Trace, root.s.Trace)
	}
}

// The traced run records spans from the client, the server's handler
// goroutines and the sweep at once.
func TestRecorderConcurrentSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.begin("child", root).end()
			}
		}()
	}
	wg.Wait()
	root.end()
	ids := make(map[int64]bool)
	for _, s := range r.spans {
		ids[s.ID] = true
	}
	if len(r.spans) != 801 || len(ids) != 801 {
		t.Fatalf("recorded %d spans with %d distinct ids, want 801", len(r.spans), len(ids))
	}
}

func TestFuncPackage(t *testing.T) {
	for sym, want := range map[string]string{
		"tocttou/internal/sim.(*Kernel).run":         "tocttou/internal/sim",
		"tocttou/internal/core.RunSweepPoints.func1": "tocttou/internal/core",
		"encoding/json.(*decodeState).object":        "encoding/json",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/maps.(*Map).getWithKey":    "internal/runtime/maps",
	} {
		if got := funcPackage(sym); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", sym, got, want)
		}
	}
	if packageSuffix("internal/runtime/maps") != "runtime" || packageSuffix("encoding/json") != "encoding_json" {
		t.Error("packageSuffix does not fold runtime internals or map encoding/json")
	}
}

func TestFlatByPackage(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 9820ms, 100% of 9820ms total
      flat  flat%   sum%        cum   cum%
     910ms  9.27%  9.27%     1280ms 13.03%  tocttou/internal/sim.(*Kernel).foldSegment
     380ms  3.87% 13.14%      380ms  3.87%  tocttou/internal/sim.lehmerMul (inline)
     270ms  2.75% 15.89%      270ms  2.75%  runtime.duffcopy
      10ms   0.1% 15.99%       10ms   0.1%  internal/runtime/maps.(*Map).getWithKey
      20ms   0.2% 16.19%       20ms   0.2%  encoding/json.(*decodeState).object
      30ms   0.3% 16.49%       30ms   0.3%  syscall.Syscall6
         0     0% 16.49%       10ms   0.1%  tocttou/internal/core.RunSweepPoints
`
	got, err := flatByPackage([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 1.29, "runtime": 0.28, "encoding_json": 0.02, "core": 0}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s: %v s, want %v", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("packages %v, want exactly %v", got, want)
	}
	if _, err := flatByPackage([]byte("File: perfbench\n")); err == nil {
		t.Error("output without rows parsed without error")
	}
}

// The driver's checks: a fresh campaign must stream every point and
// return the reference report; a cache hit where a fresh campaign was
// expected, or a report that differs from the reference, fails.
func TestDriverChecksCampaignOutputs(t *testing.T) {
	spec := longPointsSpec(1, true)
	ref, points, err := reference(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := campaignd.New(campaignd.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Drain()
	var failed []string
	d := &driver{c: &campaignd.Client{Server: hs.URL, HTTP: hs.Client()}, op: func(what string, err error) bool {
		if err != nil {
			failed = append(failed, what)
		}
		return err == nil
	}}

	want := expect{spec: spec, ref: ref, points: points}
	run, ok := d.campaign(&want)
	if !ok {
		t.Fatalf("campaign failed at %v", failed)
	}
	if lat, ok := d.resubmits(&want, run.id, 3); !ok || len(lat) != 3 {
		t.Fatalf("resubmits: ok=%v, %d latencies, failed at %v", ok, len(lat), failed)
	}
	if _, ok := d.stats(); !ok {
		t.Fatalf("stats failed at %v", failed)
	}
	if _, ok := d.campaign(&want); ok || failed[len(failed)-1] != "submit" {
		t.Errorf("a cached resubmit passed as a fresh campaign (failed at %v)", failed)
	}
	wrong := expect{spec: longPointsSpec(2, true), ref: append([]byte("x"), ref...), points: points}
	if _, ok := d.campaign(&wrong); ok || failed[len(failed)-1] != "report" {
		t.Errorf("a report unlike the reference passed (failed at %v)", failed)
	}
}

func TestProcCPUCountsOwnTime(t *testing.T) {
	before, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
	}
	after, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < 100*time.Millisecond || d > 2*time.Second {
		t.Errorf("200ms of spinning read as %v of CPU", d)
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the code
// reports, with the same units.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code has %d", len(names), len(workloads))
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		got := make([]string, len(file))
		for i, m := range file {
			got[i] = m.Name + " " + m.Unit
		}
		want := make([]string, len(code))
		for i, m := range code {
			want[i] = m.name + " " + m.unit
		}
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s metrics:\n BENCHMARK.json %v\n code           %v", kind, got, want)
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}
