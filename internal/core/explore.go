package core

import (
	"fmt"
	"math/big"
	"time"

	"tocttou/internal/explore"
	"tocttou/internal/sim"
)

// ExploreOptions tunes an exact schedule-space exploration of a scenario.
type ExploreOptions struct {
	// PhaseSlots discretizes the victim's startup phase (default 24).
	PhaseSlots int
	// PreemptionBound caps injected background-noise preemptions per
	// round; 0 disables noise-injection slots entirely.
	PreemptionBound int
	// StallBound caps storage stalls per round (default 1; negative =
	// unbounded). One stall already covers all but O(p²) of the stall
	// probability mass at the paper's per-write rates.
	StallBound int
	// MCRounds sizes the Monte Carlo cross-check campaign run under
	// sim.RandomChooser on the identical discretized model (default 400;
	// negative skips the cross-check).
	MCRounds int
	// Horizon truncates every explored round at that virtual time (see
	// Scenario.Horizon); zero explores rounds to completion. Required in
	// practice for LoadThreads scenarios: each "delay the victim" branch
	// lengthens the round and stacks further choice points, so the
	// un-truncated tree grows without useful bound.
	Horizon time.Duration
	// Naive disables all equivalence merging (engine class folds and the
	// kernel's no-op noise-slot prune) for verification.
	Naive bool
	// MaxPaths forwards the engine's runaway guard (0 = engine default).
	MaxPaths int
}

func (o ExploreOptions) phaseSlots() int {
	if o.PhaseSlots <= 0 {
		return 24
	}
	return o.PhaseSlots
}

func (o ExploreOptions) stallBound() int {
	switch {
	case o.StallBound < 0:
		return 0
	case o.StallBound == 0:
		return 1
	default:
		return o.StallBound
	}
}

func (o ExploreOptions) mcRounds() int {
	if o.MCRounds == 0 {
		return 400
	}
	if o.MCRounds < 0 {
		return 0
	}
	return o.MCRounds
}

// ScheduleWitness is a replayed minimal schedule: the choice-point script,
// the traced round it produces, and the schedule's exact probability.
type ScheduleWitness struct {
	// Prob is the exact probability of this schedule (leaf weight).
	Prob *big.Rat
	// Script holds the alternative picked at each choice point, in
	// consult order. The same schedule is embedded in Events as EvChoice
	// records, so a JSONL export round-trips it.
	Script []int
	// Round is the traced replay of the schedule.
	Round Round
}

// ExploreResult is the outcome of ExploreCampaign.
type ExploreResult struct {
	// Exact is the exact attacker win probability over the discretized
	// schedule space.
	Exact *big.Rat
	// Paths, ChoicePoints, Merged, and MaxDepth report tree shape (see
	// explore.Result).
	Paths        int
	ChoicePoints int
	Merged       int
	MaxDepth     int
	// Win and Lose are minimal witnesses; nil when no such path exists.
	Win, Lose *ScheduleWitness
	// MC is the RandomChooser cross-check campaign (zero when skipped).
	MC       CampaignResult
	MCRounds int
}

// ExactProb returns Exact as a float64.
func (r *ExploreResult) ExactProb() float64 {
	f, _ := r.Exact.Float64()
	return f
}

// MCInterval returns the 95% Wilson interval of the cross-check estimate.
func (r *ExploreResult) MCInterval() (lo, hi float64) {
	return r.MC.Proportion().WilsonInterval(1.96)
}

// AgreesWithMC reports whether the exact probability lies inside the Monte
// Carlo estimate's 95% Wilson interval. Both target the same discretized
// distribution, so disagreement beyond sampling error indicates a bug.
func (r *ExploreResult) AgreesWithMC() bool {
	if r.MCRounds == 0 {
		return false
	}
	lo, hi := r.MCInterval()
	p := r.ExactProb()
	return p >= lo && p <= hi
}

// exploreScenario canonicalizes sc into the discretized model both exact
// exploration and its Monte Carlo cross-check run on: latency jitter off
// (jitter perturbs durations, not ordering decisions), the startup phase
// quantized into uniform slots, storage stalls as bounded fixed-duration
// Bernoulli choice points, and the RNG noise arrival process replaced by
// bounded injection slots at the machine's tick period.
func exploreScenario(sc Scenario, opt ExploreOptions) Scenario {
	sc = sc.withDefaults()
	sc.Trace = false
	sc.Machine.Jitter = 0
	sc.PhaseSlots = opt.phaseSlots()
	sc.StallBound = opt.stallBound()
	sc.Horizon = opt.Horizon
	noise := sc.Machine.Noise
	sc.Machine.Noise = sim.NoiseConfig{}
	if opt.PreemptionBound > 0 && noise.MeanInterval > 0 {
		period := sc.Machine.TickPeriod
		if period <= 0 {
			period = time.Millisecond
		}
		prob := float64(period) / float64(noise.MeanInterval)
		if prob > 0.5 {
			prob = 0.5
		}
		sc.NoiseSlots = sim.NoiseSlotConfig{
			Period:     period,
			Burst:      noise.MeanDuration,
			Prob:       prob,
			Bound:      opt.PreemptionBound,
			PruneNoops: !opt.Naive,
		}
	}
	return sc
}

// ExploreCampaign exhaustively enumerates the scheduling choice points of
// one scenario's bounded round and returns the exact attacker win
// probability, minimal replayable winning/losing schedules, and a Monte
// Carlo campaign over the identical discretized model for cross-checking.
// It is the exact counterpart of RunSweepPoints' sampled campaigns: feasible
// only for bounded windows, but free of sampling error.
func ExploreCampaign(sc Scenario, opt ExploreOptions) (*ExploreResult, error) {
	base := exploreScenario(sc, opt)
	st := &roundState{}
	run := func(ch sim.Chooser) (bool, error) {
		rsc := base
		rsc.Chooser = ch
		r, err := runRound(rsc, st)
		if err != nil {
			return false, err
		}
		return r.Success, nil
	}
	exres, err := explore.Explore(run, explore.Options{Naive: opt.Naive, MaxPaths: opt.MaxPaths})
	if err != nil {
		return nil, fmt.Errorf("core: explore campaign: %w", err)
	}
	out := &ExploreResult{
		Exact:        exres.PWin,
		Paths:        exres.Paths,
		ChoicePoints: exres.ChoicePoints,
		Merged:       exres.Merged,
		MaxDepth:     exres.MaxDepth,
	}
	if exres.Win != nil {
		if out.Win, err = replayWitness(base, exres.Win, true); err != nil {
			return nil, err
		}
	}
	if exres.Lose != nil {
		if out.Lose, err = replayWitness(base, exres.Lose, false); err != nil {
			return nil, err
		}
	}
	if mc := opt.mcRounds(); mc > 0 {
		mcsc := base
		mcsc.Chooser = sim.RandomChooser{}
		mcsc.Trace = true // populate L/D summaries for model comparisons
		res, err := RunCampaign(mcsc, mc)
		if err != nil {
			return nil, fmt.Errorf("core: explore MC cross-check: %w", err)
		}
		out.MC = res
		out.MCRounds = mc
	}
	return out, nil
}

// replayWitness re-runs the canonicalized scenario under the witness's
// schedule with tracing enabled and verifies it reproduces the outcome.
func replayWitness(base Scenario, w *explore.Witness, wantWin bool) (*ScheduleWitness, error) {
	script := w.Script()
	r, err := ReplaySchedule(base, script)
	if err != nil {
		return nil, err
	}
	if r.Success != wantWin {
		return nil, fmt.Errorf("core: witness replay diverged: schedule of %d choices produced success=%v, exploration saw %v",
			len(script), r.Success, wantWin)
	}
	return &ScheduleWitness{Prob: w.Prob, Script: script, Round: r}, nil
}

// ReplaySchedule runs one traced round of an exploration-canonicalized
// scenario under a recorded choice-point schedule. The scenario must carry
// the same PhaseSlots/NoiseSlots/StallBound configuration the schedule was
// recorded against (ExploreScenario rebuilds it from the original
// scenario and options).
func ReplaySchedule(base Scenario, script []int) (Round, error) {
	ch := &sim.ScriptChooser{Script: script}
	base.Chooser = ch
	base.Trace = true
	r, err := RunRound(base)
	if err != nil {
		return Round{}, fmt.Errorf("core: schedule replay: %w", err)
	}
	if ch.Overruns > 0 || ch.Consumed() != len(script) {
		return Round{}, fmt.Errorf("core: schedule replay consumed %d/%d choices with %d overruns — schedule does not match this scenario",
			ch.Consumed(), len(script), ch.Overruns)
	}
	return r, nil
}

// ExploreScenario exposes the canonicalized (discretized-model) scenario
// ExploreCampaign explores, so callers can replay schedules recorded by an
// earlier exploration — e.g. a witness read back from a JSONL trace.
func ExploreScenario(sc Scenario, opt ExploreOptions) Scenario {
	return exploreScenario(sc, opt)
}

// ScheduleFromEvents extracts the choice-point schedule embedded in a
// traced round's event stream (the EvChoice records, in consult order) —
// the inverse of the witness's JSONL export.
func ScheduleFromEvents(events []sim.Event) []int {
	var script []int
	for _, e := range events {
		if e.Kind == sim.EvChoice {
			script = append(script, int(e.Arg))
		}
	}
	return script
}
