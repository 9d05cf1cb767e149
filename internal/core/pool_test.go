package core

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"tocttou/internal/fs"
	"tocttou/internal/machine"
)

// These tests pin the pool hand-off: idle workers join any live job, so
// the first sweep of a fresh process runs on every executor, a sweep that
// starts while the pool is busy gains workers as they free up, and
// concurrent sweeps and seed searches sharing the pool still return
// their serial results.

// coldSweepEnv makes the test binary run coldSweepChild instead of the
// tests: a process whose first RunSweepPoints meets an unstarted pool.
const coldSweepEnv = "TOCTTOU_CORE_COLD_SWEEP"

func TestMain(m *testing.M) {
	if os.Getenv(coldSweepEnv) == "1" {
		os.Exit(coldSweepChild())
	}
	os.Exit(m.Run())
}

// coldGrid is four distinct points of 750*parallelism() rounds each —
// several thousand rounds, enough for every helper to be scheduled and
// claim a ticket before the caller could drain the grid alone.
func coldGrid() []SweepPoint {
	rounds := 750 * parallelism()
	return []SweepPoint{
		{Scenario: viSc(machine.SMP2(), 100<<10, 81001, false), Rounds: rounds},
		{Scenario: viSc(machine.SMP2(), 20<<10, 81001+7919, true), Rounds: rounds},
		{Scenario: viSc(machine.Uniprocessor(), 200<<10, 81001+2*7919, false), Rounds: rounds},
		{Scenario: viSc(machine.MultiCore(), 50<<10, 81001+3*7919, false), Rounds: rounds},
	}
}

// coldSweepChild runs the process's first sweep and checks it used
// parallelism() executors and matches RunCampaign point by point. It
// reports failures on stderr and through its exit status.
func coldSweepChild() int {
	points := coldGrid()
	got, stats, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "first sweep: %v\n", err)
		return 1
	}
	status := 0
	if stats.Executors != parallelism() {
		fmt.Fprintf(os.Stderr, "first sweep ran on %d executors, want parallelism() = %d\n", stats.Executors, parallelism())
		status = 1
	}
	for i, p := range points {
		want, err := RunCampaign(p.Scenario, p.Rounds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "RunCampaign point %d: %v\n", i, err)
			return 1
		}
		if got[i] != want {
			fmt.Fprintf(os.Stderr, "point %d: first sweep diverged from RunCampaign:\n got: %+v\nwant: %+v\n", i, got[i], want)
			status = 1
		}
	}
	fmt.Printf("first sweep: %d rounds on %d executors\n", stats.RoundsExecuted, stats.Executors)
	return status
}

func TestSweepPoolColdProcessUsesEveryExecutor(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), coldSweepEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("fresh process: %v\n%s", err, out)
	}
	t.Logf("%s", out)
}

// poolIdle reports how many pool workers are parked.
func poolIdle() int {
	enginePool.mu.Lock()
	defer enginePool.mu.Unlock()
	return enginePool.idle
}

// waitUntil polls cond for up to a minute.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// sweepOutcome is one RunSweepPoints call's return values.
type sweepOutcome struct {
	res   []CampaignResult
	stats SweepStats
	err   error
}

func TestSweepPoolLateJoin(t *testing.T) {
	p := parallelism()
	// Start the pool and let every worker park.
	if _, _, err := RunSweepPoints([]SweepPoint{{Scenario: viSc(machine.SMP2(), 4<<10, 82001, false), Rounds: 4}}, SweepOptions{}); err != nil {
		t.Fatalf("warm-up sweep: %v", err)
	}
	waitUntil(t, "every pool worker is parked", func() bool { return poolIdle() == p })

	// Two blocker sweeps A whose success check waits for release, so
	// every executor that joins one stalls inside its first round. With
	// 4p rounds each, every joiner gets a round; together they want
	// 2(p-1) >= p helpers, so they pin every pool worker.
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // a failed wait must not strand the blockers
	blocked := func(sc Scenario) Scenario {
		sc.SuccessCheck = func(f *fs.FS, paths Paths, uid int) bool {
			<-release
			info, err := f.LookupInfo(paths.Passwd)
			return err == nil && info.UID == uid
		}
		return sc
	}
	blockers := []SweepPoint{
		{Scenario: blocked(viSc(machine.SMP2(), 20<<10, 82003, false)), Rounds: 4 * p},
		{Scenario: blocked(viSc(machine.SMP2(), 20<<10, 82003+7919, false)), Rounds: 4 * p},
	}
	aOut := make([]sweepOutcome, len(blockers))
	var wg sync.WaitGroup
	for i, pt := range blockers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, stats, err := RunSweepPoints([]SweepPoint{pt}, SweepOptions{})
			aOut[i] = sweepOutcome{res, stats, err}
		}()
	}
	waitUntil(t, "the blockers hold every pool worker", func() bool { return poolIdle() == 0 })

	// Sweep B starts with no idle worker; release A only once B is
	// committing rounds on its caller.
	b := SweepPoint{Scenario: viSc(machine.SMP2(), 100<<10, 82007, false), Rounds: 3000}
	started := make(chan struct{})
	var once sync.Once
	var bOut sweepOutcome
	wg.Add(1)
	go func() {
		defer wg.Done()
		opt := SweepOptions{OnRound: func(int, int, Round) { once.Do(func() { close(started) }) }}
		res, stats, err := RunSweepPoints([]SweepPoint{b}, opt)
		bOut = sweepOutcome{res, stats, err}
	}()
	<-started
	unblock()
	wg.Wait()

	if bOut.err != nil {
		t.Fatalf("sweep B: %v", bOut.err)
	}
	if bOut.stats.Executors <= 1 {
		t.Errorf("sweep B ran on %d executors; workers freed by A never joined it", bOut.stats.Executors)
	}
	t.Logf("sweep B: %d executors", bOut.stats.Executors)
	for i, pt := range blockers {
		if aOut[i].err != nil {
			t.Fatalf("blocker %d: %v", i, aOut[i].err)
		}
		checkCampaignTwin(t, fmt.Sprintf("blocker %d", i), pt, aOut[i].res[0])
	}
	checkCampaignTwin(t, "sweep B", b, bOut.res[0])
}

// checkCampaignTwin compares a sweep result with RunCampaign's.
func checkCampaignTwin(t *testing.T, name string, pt SweepPoint, got CampaignResult) {
	t.Helper()
	want, err := RunCampaign(pt.Scenario, pt.Rounds)
	if err != nil {
		t.Fatalf("%s: RunCampaign: %v", name, err)
	}
	if got != want {
		t.Errorf("%s diverged from RunCampaign:\n got: %+v\nwant: %+v", name, got, want)
	}
}

func TestSweepPoolConcurrentSweepsAndFindRound(t *testing.T) {
	const rounds = 60
	sweeps := [][]SweepPoint{
		uniformPoints(sweepTestPoints(), rounds),
		uniformPoints(sweepTestPoints()[1:], 2*rounds),
	}
	wantSweep := make([][]CampaignResult, len(sweeps))
	for s, points := range sweeps {
		for _, pt := range points {
			wantSweep[s] = append(wantSweep[s], serialCampaign(t, pt.Scenario, pt.Rounds))
		}
	}
	type search struct {
		sc   Scenario
		want func(Round) bool
		idx  int // serial first match, -1 if none
	}
	const stride, tries = 9973, 512
	searches := []search{
		{sc: viSc(machine.Uniprocessor(), 200<<10, 70123, true), want: func(r Round) bool { return r.Success }},
		{sc: viSc(machine.Uniprocessor(), 400<<10, 70129, false), want: func(r Round) bool { return r.Success }},
		{sc: viSc(machine.SMP2(), 20<<10, 70133, false), want: func(r Round) bool { return !r.Success }},
	}
	for i := range searches {
		s := &searches[i]
		s.idx = serialFindIndex(t, s.sc, tries, stride, s.want)
	}

	var wg sync.WaitGroup
	for s, points := range sweeps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := RunSweepPoints(points, SweepOptions{})
			if err != nil {
				t.Errorf("sweep %d: %v", s, err)
				return
			}
			for i := range points {
				if got[i] != wantSweep[s][i] {
					t.Errorf("sweep %d point %d diverged from the serial fold:\n got: %+v\nwant: %+v", s, i, got[i], wantSweep[s][i])
				}
			}
		}()
	}
	for i, s := range searches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, seed, n, err := FindRound(s.sc, tries, stride, s.want)
			if s.idx < 0 {
				if err == nil {
					t.Errorf("search %d: FindRound matched candidate %d, serial scan found none", i, n-1)
				}
				return
			}
			if err != nil {
				t.Errorf("search %d: FindRound: %v", i, err)
				return
			}
			if wantSeed := s.sc.Seed + int64(s.idx)*stride; n != s.idx+1 || seed != wantSeed {
				t.Errorf("search %d: FindRound returned (seed %d, tries %d), serial scan (seed %d, tries %d)", i, seed, n, wantSeed, s.idx+1)
			}
		}()
	}
	wg.Wait()
}
