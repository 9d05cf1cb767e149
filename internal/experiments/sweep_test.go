package experiments

import (
	"runtime"
	"testing"

	"tocttou/internal/core"
	"tocttou/internal/machine"
)

// fig6Scenarios rebuilds the exact Fig 6 point set (sizes, base seed,
// per-point stride) so these tests pin the production sweep, not a toy.
func fig6Scenarios() []core.Scenario {
	sizes := []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	m := machine.Uniprocessor()
	scs := make([]core.Scenario, len(sizes))
	for i, kb := range sizes {
		scs[i] = viScenario(m, kb, 1007+int64(i)*7919, false)
	}
	return scs
}

// fig6Points is the Fig 6 point set at a uniform round budget.
func fig6Points(rounds int) []core.SweepPoint {
	scs := fig6Scenarios()
	points := make([]core.SweepPoint, len(scs))
	for i, sc := range scs {
		points[i] = core.SweepPoint{Scenario: sc, Rounds: rounds}
	}
	return points
}

// TestFig6SweepBitIdenticalToSerialLoop is the tentpole's contract: the
// interleaved sweep over the Fig 6 point set produces byte-for-byte the
// CampaignResults of the old serial RunCampaign loop, at GOMAXPROCS=1
// and at NumCPU (and under -race via make check).
func TestFig6SweepBitIdenticalToSerialLoop(t *testing.T) {
	scs := fig6Scenarios()
	const rounds = 60
	serial := make([]core.CampaignResult, len(scs))
	for i, sc := range scs {
		res, err := core.RunCampaign(sc, rounds)
		if err != nil {
			t.Fatalf("serial point %d: %v", i, err)
		}
		serial[i] = res
	}
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		swept, _, err := core.RunSweepPoints(fig6Points(rounds), core.SweepOptions{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: sweep: %v", procs, err)
		}
		for i := range scs {
			if swept[i] != serial[i] {
				t.Errorf("GOMAXPROCS=%d point %d (%dKB): sweep diverged from serial loop:\nsweep:  %+v\nserial: %+v",
					procs, i, 100*(i+1), swept[i], serial[i])
			}
		}
	}
}

// TestFig6SeedStreamsPairwiseDisjoint documents why the seed derivation
// is collision-free as-is. Round k of point i runs at seed
//
//	(1007 + i*7919) + (k+1)*core.SeedStride.
//
// Two points' streams could only share a seed if their base-seed
// difference were a nonzero multiple of SeedStride; Fig 6's bases span
// only 9*7919 = 71271 < SeedStride = 1000003, so no multiple fits and
// the streams are pairwise disjoint for any budget. The test verifies
// the concrete instance exhaustively at the production budget.
func TestFig6SeedStreamsPairwiseDisjoint(t *testing.T) {
	scs := fig6Scenarios()
	const rounds = 500 // the production Fig 6 budget
	seen := make(map[int64]int, len(scs)*rounds)
	for i, sc := range scs {
		for k := 0; k < rounds; k++ {
			seed := sc.Seed + int64(k+1)*core.SeedStride
			if j, dup := seen[seed]; dup {
				t.Fatalf("seed %d of point %d collides with point %d", seed, i, j)
			}
			seen[seed] = i
		}
	}
	if len(seen) != len(scs)*rounds {
		t.Fatalf("expected %d distinct seeds, got %d", len(scs)*rounds, len(seen))
	}
}

// TestFig6AdaptiveReducesRounds checks the opt-in budget: at a 0.04
// half-width the low-rate uniprocessor points satisfy the Wilson rule
// long before 500 rounds, and the results stay deterministic.
func TestFig6AdaptiveReducesRounds(t *testing.T) {
	const budget = 500
	points := fig6Points(budget)
	opt := core.SweepOptions{Adaptive: core.AdaptiveStop{HalfWidth: 0.04}}
	res, stats, err := core.RunSweepPoints(points, opt)
	if err != nil {
		t.Fatalf("adaptive sweep: %v", err)
	}
	total := len(points) * budget
	if stats.RoundsCommitted >= total {
		t.Errorf("adaptive committed %d rounds, want < fixed total %d", stats.RoundsCommitted, total)
	}
	if stats.PointsStopped == 0 {
		t.Error("no point stopped early at half-width 0.04")
	}
	t.Logf("adaptive: %d/%d rounds committed, %d/%d points stopped early",
		stats.RoundsCommitted, total, stats.PointsStopped, len(points))
	res2, stats2, err := core.RunSweepPoints(points, opt)
	if err != nil {
		t.Fatalf("adaptive sweep (repeat): %v", err)
	}
	// RoundsExecuted counts discarded in-flight overshoot and so depends
	// on scheduling; the deterministic contract covers the committed
	// rounds and the results themselves.
	if stats2.RoundsCommitted != stats.RoundsCommitted || stats2.PointsStopped != stats.PointsStopped {
		t.Errorf("adaptive stats nondeterministic: %+v vs %+v", stats, stats2)
	}
	for i := range res {
		if res[i] != res2[i] {
			t.Errorf("adaptive point %d nondeterministic:\n a: %+v\n b: %+v", i, res[i], res2[i])
		}
	}
}

// TestAdaptiveOffByDefault guards the goldens: a zero Options value must
// translate to a sweep with no adaptive stopping.
func TestAdaptiveOffByDefault(t *testing.T) {
	var o Options
	if so := o.sweep(); so.Adaptive.HalfWidth != 0 {
		t.Fatalf("default Options enable adaptive stopping: %+v", so.Adaptive)
	}
	o.AdaptiveHalfWidth = 0.02
	if so := o.sweep(); so.Adaptive.HalfWidth != 0.02 {
		t.Fatalf("AdaptiveHalfWidth not forwarded: %+v", so.Adaptive)
	}
}
