package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tocttou/internal/campaignd"
	"tocttou/internal/core"
	"tocttou/internal/scenario"
)

// The traced run. A child process hosts the workload's work in-process
// and records a span around every call into a layer's public function —
// scenario.LoadBytes/Compile, core.RunSweepPoints (cold, then warm),
// RunSweepPointsCheckpoint, CheckpointStore.Flush, Outcome.Render, the
// campaignd client calls and, through a timing wrapper around
// Server.Handler(), the handlers they reach — then serves the same spec
// through an in-process fleet whose workers log their protocol traffic.
// Every path runs on every workload's spec, so every per-layer metric is
// measured on every workload; README.md maps each one to the end-to-end
// metric it should move. For the rest of the window it repeats the
// workload's own path with spans on and off to measure the tracing
// overhead. Spans are written out when the child exits.

// perLayer is every metric a traced run reports, in print order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.load_ms", "ms"}, {"scenario.compile_ms", "ms"}, {"scenario.points", "count"},
		{"core.cold_sweep_s", "s"}, {"core.warm_sweep_s", "s"},
		{"core.cold_util", "ratio"}, {"core.warm_util", "ratio"},
		{"core.cpu_ns_per_round", "ns"}, {"core.rounds_executed", "count"},
		{"core.rounds_committed", "count"}, {"core.points_memoized", "count"},
		{"core.checkpoint_overhead_s", "s"},
		{"core.checkpoint_flush_ms_p50", "ms"}, {"core.checkpoint_flush_ms_p90", "ms"},
		{"core.checkpoint_bytes_written", "bytes"},
		{"report.render_ms", "ms"},
		{"campaignd.submit_ms", "ms"}, {"campaignd.resubmit_ms_p50", "ms"}, {"campaignd.resubmit_ms_p99", "ms"},
		{"campaignd.stream_gap_ms_p98", "ms"}, {"campaignd.report_ms", "ms"},
		{"campaignd.events", "count"}, {"campaignd.stream_bytes", "bytes"},
		{"campaignd.data_dir_bytes", "bytes"}, {"campaignd.requests_failed", "count"},
		{"workerpool.spawn_to_load_ms", "ms"}, {"workerpool.lease_rtt_ms_p50", "ms"},
		{"workerpool.idle_wait_ms", "ms"}, {"workerpool.leases", "count"},
		{"workerpool.msgs", "count"}, {"workerpool.bytes", "bytes"},
		{"workerpool.worker_util", "ratio"}, {"workerpool.restarts", "count"},
		{"workerpool.leases_requeued", "count"},
	}
	for _, p := range profPackages {
		defs = append(defs, metricDef{"self_cpu_s." + p.suffix, "s"})
	}
	return append(defs,
		metricDef{"trace.campaign_s", "s"}, metricDef{"trace.untraced_campaign_s", "s"},
		metricDef{"trace.overhead_ratio", "ratio"})
}()

// Repetitions inside the traced run: enough samples that the medians
// and named percentiles obey the tail rule where the spec allows.
const (
	tracedRepeats      = 20   // load, compile and render calls
	tracedFlushSamples = 200  // checkpoint flushes replayed, at least
	tracedResubmits    = 1000 // in-process cached resubmits (p99 needs 1000)
	tracedWorkers      = 2
	minOverheadPairs   = 2 // traced and untraced campaigns of the workload's path
)

// tracedOut is what the child hands back to the parent.
type tracedOut struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runTraced is the parent side: the traced child, then the per-layer
// result line.
func runTraced(b *bench, wl *workload, window time.Duration, dir string) (*result, error) {
	_ = os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "spec.yaml"), b.want.spec, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "ref.txt"), b.want.ref, 0o644); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", wl.name, "-seconds", strconv.Itoa(int(window/time.Second)), "-traced-child", dir)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := startGroup(cmd); err != nil {
		return nil, err
	}
	werr := cmd.Wait()
	if err := reapGroup(cmd.Process.Pid); err != nil && werr == nil {
		werr = err
	}
	if !b.op("traced run", werr) {
		return nil, werr
	}
	data, err := os.ReadFile(filepath.Join(dir, "layers.json"))
	if err != nil {
		return nil, err
	}
	var out tracedOut
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}

	res := &result{Attempted: b.attempted + out.Attempted, Failed: b.failed + out.Failed, Metrics: map[string]metricValue{}}
	fmt.Printf("operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, m := range perLayer {
		v, ok := out.Metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("traced run did not report %s", m.name)
		}
		fmt.Printf("%-32s %-6s %.6g\n", m.name, m.unit, v)
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	fmt.Printf("spans: %s\n", filepath.Join(dir, "spans.json"))
	res.Correct = res.Failed == 0
	return res, nil
}

// tracer is the child's state.
type tracer struct {
	dir       string
	want      expect
	rec       *recorder
	m         map[string]float64
	hosts     int // servers started, for their directory names
	attempted int
	failed    int
}

func (t *tracer) op(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench traced: FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// tracedMain is the child side. The first sweep it runs is the first of
// the process, so the cold sweep pool is measured as a fresh CLI meets it.
func tracedMain(dir string, wl *workload, window time.Duration) error {
	until := time.Now().Add(window)
	t := &tracer{dir: dir, rec: newRecorder(), m: make(map[string]float64)}
	var err error
	if t.want.spec, err = os.ReadFile(filepath.Join(dir, "spec.yaml")); err != nil {
		return err
	}
	if t.want.ref, err = os.ReadFile(filepath.Join(dir, "ref.txt")); err != nil {
		return err
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	root := t.rec.begin("traced-run", nil)
	if err := t.coreLayers(root); err != nil {
		pprof.StopCPUProfile()
		pf.Close()
		return err
	}
	if h, ok := t.host(root, "served", 0, true, tracedResubmits); ok {
		t.campaigndMetrics(h)
	}
	if h, ok := t.host(root, "fleet", tracedWorkers, true, 0); ok {
		t.workerpoolMetrics(h)
	}
	t.overhead(root, wl, until)
	root.end()
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return err
	}

	self, err := selfCPUByPackage(profPath)
	if err != nil {
		return err
	}
	for _, p := range profPackages {
		t.m["self_cpu_s."+p.suffix] = self[p.suffix]
	}
	if err := t.rec.write(filepath.Join(dir, "spans.json")); err != nil {
		return err
	}
	printRollup(t.rec.spans)
	data, err := json.Marshal(tracedOut{Attempted: t.attempted, Failed: t.failed, Metrics: t.m})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), data, 0o644)
}

func printRollup(spans []span) {
	fmt.Printf("%-44s %6s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "longest_ms")
	for _, r := range rollup(spans) {
		fmt.Printf("%-44s %6d %12.3f %12.3f %12.3f\n", r.Name, r.Count, ms(r.Total), ms(r.Self), ms(r.Longest))
	}
}

// coreLayers measures the scenario, core and report layers on the spec.
func (t *tracer) coreLayers(root *openSpan) error {
	var spec *scenario.Spec
	var c *scenario.Compiled
	var loads, compiles []float64
	for i := 0; i < tracedRepeats; i++ {
		sp := t.rec.begin("scenario.LoadBytes", root)
		s, err := scenario.LoadBytes("spec.yaml", t.want.spec)
		loads = append(loads, ms(sp.end()))
		if err != nil {
			return err
		}
		sp = t.rec.begin("scenario.Compile", root)
		cc, err := scenario.Compile(s)
		compiles = append(compiles, ms(sp.end()))
		if err != nil {
			return err
		}
		spec, c = s, cc
	}
	t.want.points = len(c.Points)
	t.m["scenario.load_ms"] = quantile(loads, 0.5)
	t.m["scenario.compile_ms"] = quantile(compiles, 0.5)
	t.m["scenario.points"] = float64(len(c.Points))

	sweep := func(name string) ([]core.CampaignResult, core.SweepStats, time.Duration, time.Duration, error) {
		cpu0 := selfCPU()
		sp := t.rec.begin(name, root)
		res, st, err := core.RunSweepPoints(c.Points, core.SweepOptions{})
		wall := sp.end()
		return res, st, wall, selfCPU() - cpu0, err
	}
	cold, coldSt, coldWall, coldCPU, err := sweep("core.RunSweepPoints/cold")
	if !t.op("cold sweep", err) {
		return err
	}
	warm, warmSt, warmWall, warmCPU, err := sweep("core.RunSweepPoints/warm")
	if !t.op("warm sweep", err) {
		return err
	}
	t.m["core.cold_sweep_s"] = coldWall.Seconds()
	t.m["core.warm_sweep_s"] = warmWall.Seconds()
	t.m["core.cold_util"] = float64(coldCPU) / float64(coldWall)
	t.m["core.warm_util"] = float64(warmCPU) / float64(warmWall)
	if n := coldSt.RoundsExecuted + warmSt.RoundsExecuted; n > 0 {
		t.m["core.cpu_ns_per_round"] = float64(coldCPU+warmCPU) / float64(n)
	}
	t.m["core.rounds_executed"] = float64(coldSt.RoundsExecuted)
	t.m["core.rounds_committed"] = float64(coldSt.RoundsCommitted)
	t.m["core.points_memoized"] = float64(coldSt.PointsMemoized)

	// Render, and check both sweeps against the reference report.
	var renders []float64
	for _, results := range [][]core.CampaignResult{cold, warm} {
		var buf bytes.Buffer
		out := &scenario.Outcome{Spec: spec, Compiled: c, Results: results, Stats: coldSt}
		for j := 0; j < tracedRepeats/2; j++ {
			buf.Reset()
			sp := t.rec.begin("scenario.Outcome.Render", root)
			err = out.Render(&buf)
			renders = append(renders, ms(sp.end()))
		}
		if err == nil && !bytes.Equal(buf.Bytes(), t.want.ref) {
			err = fmt.Errorf("in-process report differs from the reference")
		}
		if err == nil {
			err = out.CheckAssertions()
		}
		t.op("render and check", err)
	}
	t.m["report.render_ms"] = quantile(renders, 0.5)

	// Checkpointing: the same sweep through the checkpointed runner, then
	// the results replayed through the public store one flush at a time.
	sp := t.rec.begin("core.RunSweepPointsCheckpoint", root)
	ckRes, _, err := core.RunSweepPointsCheckpoint(c.Points, core.SweepOptions{}, filepath.Join(t.dir, "sweep.ckpt"))
	ckWall := sp.end()
	if err == nil && len(ckRes) != len(cold) {
		err = fmt.Errorf("checkpointed sweep returned %d results, want %d", len(ckRes), len(cold))
	}
	if !t.op("checkpointed sweep", err) {
		return err
	}
	t.m["core.checkpoint_overhead_s"] = (ckWall - warmWall).Seconds()

	var flushes []float64
	var written int64
	for rep := 0; rep == 0 || len(flushes) < tracedFlushSamples; rep++ {
		path := filepath.Join(t.dir, fmt.Sprintf("replay-%d.ckpt", rep))
		replay := t.rec.begin("checkpoint-replay", root)
		sp := t.rec.begin("core.OpenCheckpoint", replay)
		store, err := core.OpenCheckpoint(path, c.Points, core.AdaptiveStop{})
		sp.end()
		if !t.op("open checkpoint", err) {
			return err
		}
		for i, r := range cold {
			sp := t.rec.begin("core.CheckpointStore.Flush", replay)
			err := store.Flush(i, r)
			flushes = append(flushes, ms(sp.end()))
			if !t.op("flush", err) {
				return err
			}
			if rep == 0 {
				st, err := os.Stat(path)
				if err != nil {
					return err
				}
				written += st.Size()
			}
		}
		replay.end()
		_ = os.Remove(path)
	}
	t.m["core.checkpoint_flush_ms_p50"], _ = percentile(flushes, 0.5)
	t.m["core.checkpoint_flush_ms_p90"], _ = percentile(flushes, 0.9)
	t.m["core.checkpoint_bytes_written"] = float64(written)
	return nil
}

// overhead repeats the workload's own path in this process with spans
// on and with spans off, alternating which goes first, until the window
// is spent (at least minOverheadPairs pairs). Both halves run in the same
// warm process, each served campaign on a fresh server, so the ratio of
// their medians is the tracing overhead alone.
func (t *tracer) overhead(root *openSpan, wl *workload, until time.Time) {
	var on, off []float64
	for i := 0; i < minOverheadPairs || time.Now().Before(until); i++ {
		for _, traced := range []bool{i%2 == 0, i%2 == 1} {
			d, ok := t.pathCampaign(root, wl, traced)
			switch {
			case !ok:
			case traced:
				on = append(on, d.Seconds())
			default:
				off = append(off, d.Seconds())
			}
		}
	}
	var err error
	if len(on) == 0 || len(off) == 0 {
		err = errors.New("no traced or no untraced campaign passed")
	}
	if !t.op("tracing overhead", err) {
		return
	}
	t.m["trace.campaign_s"] = quantile(on, 0.5)
	t.m["trace.untraced_campaign_s"] = quantile(off, 0.5)
	t.m["trace.overhead_ratio"] = t.m["trace.campaign_s"] / t.m["trace.untraced_campaign_s"]
}

// pathCampaign is one campaign of the workload's own path in this
// process, submit or load → checked report, with or without spans.
func (t *tracer) pathCampaign(root *openSpan, wl *workload, traced bool) (time.Duration, bool) {
	if wl.workers != cliPath {
		h, ok := t.host(root, "overhead", wl.workers, traced, 0)
		if !ok {
			return 0, false
		}
		return h.run.total, true
	}
	// The CLI: load, compile, sweep, render and check, as one
	// `tocttou -scenario` process does.
	var rec *recorder
	if traced {
		rec = t.rec
	}
	t0 := time.Now()
	parent := rec.begin("overhead", root)
	err := func() error {
		sp := rec.begin("scenario.LoadBytes", parent)
		s, err := scenario.LoadBytes("spec.yaml", t.want.spec)
		sp.end()
		if err != nil {
			return err
		}
		sp = rec.begin("scenario.Compile", parent)
		c, err := scenario.Compile(s)
		sp.end()
		if err != nil {
			return err
		}
		sp = rec.begin("core.RunSweepPoints", parent)
		res, st, err := core.RunSweepPoints(c.Points, core.SweepOptions{})
		sp.end()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		out := &scenario.Outcome{Spec: s, Compiled: c, Results: res, Stats: st}
		sp = rec.begin("scenario.Outcome.Render", parent)
		err = out.Render(&buf)
		sp.end()
		if err == nil && !bytes.Equal(buf.Bytes(), t.want.ref) {
			err = fmt.Errorf("in-process report differs from the reference")
		}
		if err == nil {
			err = out.CheckAssertions()
		}
		return err
	}()
	parent.end()
	return time.Since(t0), t.op("in-process CLI campaign", err)
}

// hostRun is one campaign served in-process.
type hostRun struct {
	run       *campaignRun
	resubmits []float64 // ms
	stats     campaignd.Stats
	handler   *timedHandler // nil when untraced
	dataDir   string
	logDir    string // the workers' protocol logs; traced fleets only
}

// host serves the spec through a fresh in-process campaignd.Server —
// with a worker fleet when workers > 0 — and drives one campaign, then
// the given number of cached resubmits, through the shared driver.
// Traced, every client call and handler is a span and the workers are
// `perfbench -worker` wrappers that log their protocol traffic;
// untraced, the server runs bare with `tocttoud -worker` workers.
func (t *tracer) host(parent *openSpan, name string, workers int, traced bool, resubmits int) (*hostRun, bool) {
	t.hosts++
	dir := filepath.Join(t.dir, fmt.Sprintf("%s-%d", name, t.hosts))
	h := &hostRun{dataDir: filepath.Join(dir, "data")}
	cfg := campaignd.Config{DataDir: h.dataDir, Workers: workers}
	if workers > 0 {
		exe, err := os.Executable()
		if !t.op("locate worker binary", err) {
			return nil, false
		}
		cfg.WorkerCommand = []string{filepath.Join(filepath.Dir(exe), "tocttoud"), "-worker"}
		if traced {
			h.logDir = filepath.Join(dir, "workers")
			if !t.op("worker log dir", os.MkdirAll(h.logDir, 0o755)) {
				return nil, false
			}
			cfg.WorkerCommand = []string{exe, "-worker", h.logDir}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if !t.op("listen", err) {
		return nil, false
	}
	srv, err := campaignd.New(cfg)
	if !t.op("campaignd.New", err) {
		ln.Close()
		return nil, false
	}
	var rec *recorder
	var tr *spanTransport
	handler := srv.Handler()
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	if traced {
		rec = t.rec
		h.handler = &timedHandler{h: handler, rec: rec, prefix: name + "/"}
		handler = h.handler
		tr = &spanTransport{base: rt}
		rt = tr
	}
	hs := &http.Server{Handler: handler}
	go hs.Serve(ln)
	defer func() {
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()

	top := rec.begin(name, parent)
	defer top.end()
	dr := &driver{
		c:  &campaignd.Client{Server: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: rt}},
		op: t.op,
		call: func(what string, fn func() error) (time.Duration, error) {
			sp := rec.begin(name+"/"+what, top)
			if tr != nil {
				tr.cur.Store(&sp.s)
				defer tr.cur.Store(nil)
			}
			err := fn()
			return sp.end(), err
		},
	}
	var ok bool
	if h.run, ok = dr.campaign(&t.want); !ok {
		return nil, false
	}
	h.resubmits, ok = dr.resubmits(&t.want, h.run.id, resubmits)
	var statsOK bool
	h.stats, statsOK = dr.stats()
	return h, ok && statsOK
}

// campaigndMetrics are the served campaign's client and handler figures.
func (t *tracer) campaigndMetrics(h *hostRun) {
	t.m["campaignd.submit_ms"] = ms(h.run.submit)
	t.m["campaignd.resubmit_ms_p50"], _ = percentile(h.resubmits, 0.5)
	t.m["campaignd.resubmit_ms_p99"], _ = percentile(h.resubmits, 0.99)
	t.m["campaignd.stream_gap_ms_p98"], _ = percentile(h.run.gapsMS, 0.98)
	t.m["campaignd.report_ms"] = ms(h.run.report)
	t.m["campaignd.events"] = float64(t.want.points) // every point streamed exactly once (checked)
	t.m["campaignd.stream_bytes"] = float64(h.handler.bytesFor("events"))
	t.m["campaignd.data_dir_bytes"] = float64(dirBytes(h.dataDir))
	t.m["campaignd.requests_failed"] = float64(h.handler.failures())
}

// workerpoolMetrics are the traced fleet's protocol figures, from its
// workers' logs, and its supervision counters.
func (t *tracer) workerpoolMetrics(h *hostRun) {
	ws, err := readWorkerLogs(h.logDir)
	if !t.op("worker logs", err) {
		return
	}
	t.m["workerpool.spawn_to_load_ms"] = quantile(ws.spawnToLoad, 0.5)
	t.m["workerpool.lease_rtt_ms_p50"], _ = percentile(ws.leaseRTT, 0.5)
	t.m["workerpool.idle_wait_ms"] = ws.idleWait
	t.m["workerpool.leases"] = float64(ws.leases)
	t.m["workerpool.msgs"] = float64(ws.msgs)
	t.m["workerpool.bytes"] = float64(ws.bytes)
	if ws.life > 0 {
		t.m["workerpool.worker_util"] = float64(ws.busy) / float64(ws.life)
	}
	t.m["workerpool.restarts"] = float64(h.stats.WorkerRestarts)
	t.m["workerpool.leases_requeued"] = float64(h.stats.LeasesRequeued)
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// spanTransport tells the server wrapper which client span caused each
// request.
type spanTransport struct {
	base http.RoundTripper
	cur  atomic.Pointer[span]
}

const parentHeader = "X-Perfbench-Parent"

func (s *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if sp := s.cur.Load(); sp != nil {
		r = r.Clone(r.Context())
		r.Header.Set(parentHeader, fmt.Sprintf("%d/%d", sp.ID, sp.Trace))
	}
	return s.base.RoundTrip(r)
}

// timedHandler wraps Server.Handler(): one span per request, under the
// client span that sent it, plus per-route bytes and failure counts.
type timedHandler struct {
	h      http.Handler
	rec    *recorder
	prefix string // span name prefix: which host served the request

	mu     sync.Mutex
	bytes  map[string]int64
	failed int
}

func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/report"):
		return "report"
	case p == "/v1/campaigns" && r.Method == http.MethodPost:
		return "submit"
	}
	return strings.TrimPrefix(p, "/v1/")
}

func (th *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var parent *openSpan
	if id, trace, ok := strings.Cut(r.Header.Get(parentHeader), "/"); ok {
		pid, err1 := strconv.ParseInt(id, 10, 64)
		tid, err2 := strconv.ParseInt(trace, 10, 64)
		if err1 == nil && err2 == nil {
			parent = &openSpan{s: span{ID: pid, Trace: tid}}
		}
	}
	rt := route(r)
	sp := th.rec.begin(th.prefix+"campaignd.Handler/"+rt, parent)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	th.h.ServeHTTP(sw, r)
	sp.end()
	th.mu.Lock()
	defer th.mu.Unlock()
	if th.bytes == nil {
		th.bytes = make(map[string]int64)
	}
	th.bytes[rt] += sw.n
	if sw.status >= 400 {
		th.failed++
	}
}

func (th *timedHandler) bytesFor(rt string) int64 {
	th.mu.Lock()
	defer th.mu.Unlock()
	return th.bytes[rt]
}

func (th *timedHandler) failures() int {
	th.mu.Lock()
	defer th.mu.Unlock()
	return th.failed
}

type statusWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(p []byte) (int, error) {
	n, err := s.ResponseWriter.Write(p)
	s.n += int64(n)
	return n, err
}

// Flush keeps the event stream's per-batch flushes working through the
// wrapper.
func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
