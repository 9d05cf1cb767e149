package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tocttou/internal/campaignd"
)

// The untraced end-to-end runs: the real tocttou and tocttoud binaries,
// driven from outside exactly as a user would drive them, with every
// output checked against a reference report computed in-process once
// per seed before any timing starts.

// bench holds one invocation's binaries, inputs and samples.
type bench struct {
	tocttou, tocttoud string
	work              string // per-invocation scratch directory
	http              *http.Client

	specPath      string
	want          expect
	setupSpecPath string
	setupRef      []byte

	samples   map[string][]float64
	attempted int
	failed    int
	iter      int
}

func newBench(binDir, work string) *bench {
	return &bench{
		tocttou:  filepath.Join(binDir, "tocttou"),
		tocttoud: filepath.Join(binDir, "tocttoud"),
		work:     work,
		// One client process, at most 2 connections to the daemon.
		http:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}},
		samples: make(map[string][]float64),
	}
}

func (b *bench) add(metric string, v float64) { b.samples[metric] = append(b.samples[metric], v) }

// op counts one operation against those attempted; a non-nil err is a
// failed operation, logged to stderr.
func (b *bench) op(what string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// iterDir returns a fresh directory for one iteration, on the same
// filesystem as the checkout.
func (b *bench) iterDir() string {
	b.iter++
	d := filepath.Join(b.work, fmt.Sprintf("iter-%03d", b.iter))
	_ = os.RemoveAll(d)
	_ = os.MkdirAll(d, 0o755)
	return d
}

// setup samples set-up time with starts of the workload's program.
func (b *bench) setup(wl *workload, starts int) {
	if wl.workers == cliPath {
		b.cliSetup(starts)
	} else {
		b.daemonSetup(starts, wl.workers)
	}
}

// iteration is one measured campaign of the workload.
func (b *bench) iteration(wl *workload) {
	if wl.workers == cliPath {
		b.cliIteration()
	} else {
		b.servedIteration(wl.workers)
	}
}

// ---- CLI ----------------------------------------------------------------

// runCLI executes one fresh `tocttou -scenario` process and checks that
// its standard output is the header line, the reference report, and a
// blank line. It returns the process's wall time and usage.
func (b *bench) runCLI(specPath string, ref []byte) (time.Duration, usage, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(b.tocttou, "-scenario", specPath)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	if err := startGroup(cmd); err != nil {
		return 0, usage{}, err
	}
	werr := cmd.Wait()
	wall := time.Since(t0)
	rerr := reapGroup(cmd.Process.Pid)
	if werr != nil {
		return 0, usage{}, fmt.Errorf("tocttou -scenario: %v: %s", werr, strings.TrimSpace(stderr.String()))
	}
	if rerr != nil {
		return 0, usage{}, rerr
	}
	header, body, ok := bytes.Cut(stdout.Bytes(), []byte("\n"))
	if !ok || !bytes.HasPrefix(header, []byte("==== scenario ")) || !bytes.HasSuffix(header, []byte("s) ====")) {
		return 0, usage{}, fmt.Errorf("unexpected report header %q", header)
	}
	if !bytes.Equal(body, append(append([]byte(nil), ref...), '\n')) {
		return 0, usage{}, fmt.Errorf("report differs from the in-process reference (%d vs %d bytes)", len(body), len(ref)+1)
	}
	return wall, usageOf(cmd.ProcessState), nil
}

// cliSetup samples set-up time: a fresh process running the same spec
// cut to one point and one round.
func (b *bench) cliSetup(starts int) {
	for i := 0; i < starts; i++ {
		wall, _, err := b.runCLI(b.setupSpecPath, b.setupRef)
		if b.op("cli set-up run", err) {
			b.add("setup_s", wall.Seconds())
		}
	}
}

// cliIteration is one measured CLI campaign.
func (b *bench) cliIteration() {
	wall, u, err := b.runCLI(b.specPath, b.want.ref)
	if !b.op("cli campaign", err) {
		return
	}
	b.add("campaign_s", wall.Seconds())
	b.add("cpu_s", u.CPU.Seconds())
	b.add("peak_rss_mb", u.MaxRSSMB)
}

// ---- tocttoud ---------------------------------------------------------------

type daemon struct {
	cmd   *exec.Cmd
	addr  string
	setup time.Duration
	ready time.Time
	log   *os.File
}

// termGrace is how long after its first 200 from /v1/healthz a daemon
// is left before it is sent SIGTERM. tocttoud starts serving a moment
// before it installs its SIGTERM handler, and a SIGTERM in that moment
// kills it instead of draining it (a defect of tocttoud's start-up
// order). Only set-up probes stop a daemon this soon; the wait is not
// timed.
const termGrace = 50 * time.Millisecond

// startDaemon spawns tocttoud on a fresh data dir and waits for the
// first 200 from /v1/healthz; the elapsed time is its set-up time.
func (b *bench) startDaemon(dir string, workers int) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	args := []string{"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-data", filepath.Join(dir, "data")}
	if workers > 0 {
		args = append(args, "-workers", strconv.Itoa(workers))
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: exec.Command(b.tocttoud, args...), log: logf}
	d.cmd.Stderr = logf
	t0 := time.Now()
	if err := startGroup(d.cmd); err != nil {
		logf.Close()
		return nil, err
	}
	for {
		if time.Since(t0) > 20*time.Second {
			b.stopDaemon(d)
			return nil, fmt.Errorf("tocttoud not ready after 20s")
		}
		if d.addr == "" {
			data, err := os.ReadFile(addrFile)
			if err != nil || !bytes.HasSuffix(data, []byte("\n")) {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			d.addr = "http://" + strings.TrimSpace(string(data))
		}
		resp, err := b.http.Get(d.addr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Now()
				d.setup = d.ready.Sub(t0)
				return d, nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stopDaemon drains tocttoud with SIGTERM (it reaps its worker fleet
// before exiting), falls back to SIGKILL after 20s, then kills and reaps
// anything left in its process group.
func (b *bench) stopDaemon(d *daemon) (usage, error) {
	defer d.log.Close()
	b.http.CloseIdleConnections()
	if !d.ready.IsZero() {
		time.Sleep(termGrace - time.Since(d.ready))
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var werr error
	select {
	case werr = <-done:
	case <-time.After(20 * time.Second):
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		werr = fmt.Errorf("tocttoud did not drain within 20s: %v", <-done)
	}
	if err := reapGroup(d.cmd.Process.Pid); err != nil && werr == nil {
		werr = err
	}
	if werr != nil {
		return usage{}, fmt.Errorf("stopping tocttoud: %w", werr)
	}
	return usageOf(d.cmd.ProcessState), nil
}

// daemonSetup samples set-up time with start/stop cycles of their own,
// on top of the one each measured iteration contributes.
func (b *bench) daemonSetup(starts, workers int) {
	for i := 0; i < starts; i++ {
		d, err := b.startDaemon(b.iterDir(), workers)
		if !b.op("tocttoud start", err) {
			continue
		}
		_, err = b.stopDaemon(d)
		if b.op("tocttoud stop", err) {
			b.add("setup_s", d.setup.Seconds())
		}
	}
}

// servedIteration is one measured campaign through a fresh tocttoud:
// submit, stream every point, fetch and check the report, then a closed
// loop of cached resubmits.
func (b *bench) servedIteration(workers int) {
	dir := b.iterDir()
	d, err := b.startDaemon(dir, workers)
	if !b.op("tocttoud start", err) {
		return
	}
	ok := b.campaign(d)
	u, err := b.stopDaemon(d)
	if b.op("tocttoud stop", err) && ok {
		b.add("setup_s", d.setup.Seconds())
		b.add("peak_rss_mb", u.MaxRSSMB)
	}
	_ = os.RemoveAll(dir)
}

// campaign drives one campaign and its resubmits against a ready
// daemon and records their timings; it reports whether every step
// passed its check. cpu_s is the CPU the daemon's process tree used from
// just before the submit to the checked report: the fleet reaps its
// workers before it settles a campaign, so theirs is in the daemon's
// children's time by then, and the resubmits that follow are not in it.
func (b *bench) campaign(d *daemon) bool {
	dr := &driver{c: &campaignd.Client{Server: d.addr, HTTP: b.http}, op: b.op}
	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if !b.op("read daemon CPU", err) {
		return false
	}
	run, ok := dr.campaign(&b.want)
	if !ok {
		return false
	}
	cpu1, err := procCPU(pid)
	if !b.op("read daemon CPU", err) {
		return false
	}
	b.add("campaign_s", run.total.Seconds())
	b.add("cpu_s", (cpu1 - cpu0).Seconds())
	b.add("first_point_s", run.firstPoint.Seconds())
	b.samples["point_gap_ms"] = append(b.samples["point_gap_ms"], run.gapsMS...)

	lat, ok := dr.resubmits(&b.want, run.id, campaignResubmits)
	b.samples["resubmit_ms"] = append(b.samples["resubmit_ms"], lat...)
	_, sok := dr.stats()
	return ok && sok
}
