// Package experiments contains one driver per table and figure in the
// paper's evaluation, plus the headline comparisons and a model-validation
// sweep. Each driver runs simulated campaigns via internal/core and
// renders its result in the shape the paper reports, so the CLI
// (cmd/tocttou), the benchmark harness (bench_test.go), and EXPERIMENTS.md
// all share one implementation.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"tocttou/internal/core"
)

// Options tunes an experiment run.
type Options struct {
	// Rounds overrides the experiment's default round count (0 = default).
	Rounds int
	// Seed is the base RNG seed (0 = a fixed default, for reproducibility).
	Seed int64
	// Sizes overrides the experiment's swept file sizes in KB, where
	// applicable (nil = default sweep).
	Sizes []int
	// AdaptiveHalfWidth, when positive, switches the sweep-based
	// experiments to sequential stopping: each sweep point stops
	// spending rounds once the 95% Wilson interval on its success rate
	// has half-width at most this value. The default 0 keeps the fixed
	// budgets, so every experiment output stays bit-identical to the
	// serial per-campaign runner.
	AdaptiveHalfWidth float64
	// MinRounds, when positive, sets the adaptive stopper's minimum
	// rounds per point before the interval test applies.
	MinRounds int
	// Metrics appends the kernel-metrics section (per-point counter
	// summaries plus window/D/L histograms) to experiments that support
	// it. Scenarios that default to untraced run traced so the latency
	// histograms populate; tracing is a pure observer, so success rates
	// and counters are unchanged.
	Metrics bool
	// Checkpoint, when non-empty, routes the experiment's sweeps through
	// core.RunSweepPointsCheckpoint with this file path: completed points
	// flush atomically as they commit, and a rerun resumes from the file,
	// re-simulating only the missing points (bit-identical results). Only
	// meaningful for experiments where SupportsCheckpoint reports true; an
	// experiment that runs several sweeps numbers the extra files
	// (path, path.2, ...).
	Checkpoint string
	// FaultRates overrides faultsweep's swept injection rates (nil = the
	// experiment's default ladder). Each must lie in [0, 1].
	FaultRates []float64
	// FaultSeed overrides faultsweep's fault-plan seed (0 = default).
	FaultSeed int64

	// ckptCalls counts checkpointed sweeps within one experiment run so
	// each gets its own file; it lives on the runner's local Options copy.
	ckptCalls int
}

func (o Options) rounds(def int) int {
	if o.Rounds > 0 {
		return o.Rounds
	}
	return def
}

func (o Options) seed(def int64) int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

// sweep translates the options into the engine's sweep configuration.
func (o Options) sweep() core.SweepOptions {
	var so core.SweepOptions
	if o.AdaptiveHalfWidth > 0 {
		so.Adaptive = core.AdaptiveStop{HalfWidth: o.AdaptiveHalfWidth, MinRounds: o.MinRounds}
	}
	return so
}

// runSweep is the experiments' standard sweep entry point: one
// core.RunSweepPoints point per scenario at a uniform budget, plus
// checkpoint routing when the option is set. Pointer receiver so the
// per-run checkpoint-file counter advances across an experiment's
// multiple sweeps.
func (o *Options) runSweep(scs []core.Scenario, rounds int) ([]core.CampaignResult, error) {
	return o.runSweepWith(scs, rounds, o.sweep())
}

// runSweepWith is runSweep with explicit sweep options (for experiments
// that attach an OnRound observer).
func (o *Options) runSweepWith(scs []core.Scenario, rounds int, so core.SweepOptions) ([]core.CampaignResult, error) {
	points := make([]core.SweepPoint, len(scs))
	for i, sc := range scs {
		points[i] = core.SweepPoint{Scenario: sc, Rounds: rounds}
	}
	res, _, err := o.runSweepPoints(points, so)
	return res, err
}

// runSweepPoints routes a point sweep through the checkpoint runner when
// Options.Checkpoint is set; the second and later sweeps of one
// experiment run get numbered sibling files.
func (o *Options) runSweepPoints(points []core.SweepPoint, so core.SweepOptions) ([]core.CampaignResult, core.SweepStats, error) {
	if o.Checkpoint == "" {
		return core.RunSweepPoints(points, so)
	}
	o.ckptCalls++
	path := o.Checkpoint
	if o.ckptCalls > 1 {
		path = fmt.Sprintf("%s.%d", path, o.ckptCalls)
	}
	return core.RunSweepPointsCheckpoint(points, so, path)
}

// Result is a renderable experiment outcome.
type Result interface {
	// Name returns the experiment's identifier (e.g. "fig6").
	Name() string
	// Render writes the human-readable result.
	Render(w io.Writer) error
}

// Runner executes one experiment.
type Runner func(opt Options) (Result, error)

// registry maps experiment names to runners and descriptions.
var registry = map[string]struct {
	run  Runner
	desc string
}{
	"fig6":       {Fig6, "vi attack success rate vs file size on a uniprocessor (paper Fig. 6)"},
	"vismp":      {ViSMPSweep, "vi attack success on the SMP across 20KB-1MB (paper §5: 100%)"},
	"fig7":       {Fig7, "L and D vs file size for vi SMP attacks (paper Fig. 7)"},
	"table1":     {Table1, "vi SMP attack with 1-byte files: L, D, success (paper Table 1)"},
	"table2":     {Table2, "gedit SMP attack: L, D, predicted vs observed (paper Table 2)"},
	"geditup":    {GeditUniprocessor, "gedit attack on a uniprocessor (paper §4.2: ~0%)"},
	"fig8":       {Fig8, "failed gedit attack v1 timeline on the multi-core (paper Fig. 8)"},
	"geditmc1":   {GeditMulticoreV1, "gedit attack v1 campaign on the multi-core (paper §6.2.1: ~0%)"},
	"fig10":      {Fig10, "successful gedit attack v2 timeline on the multi-core (paper Fig. 10)"},
	"geditmc2":   {GeditMulticoreV2, "gedit attack v2 campaign on the multi-core (paper §6.2.2)"},
	"fig11":      {Fig11, "pipelined vs sequential attack timing (paper Fig. 11)"},
	"model":      {ModelValidation, "Equation 1 / formula (1) predictions vs simulated rates"},
	"headline":   {Headline, "uniprocessor vs multiprocessor success rates for all scenarios"},
	"sendmail":   {Sendmail, "blind flip-flop attack on a sendmail-style <lstat, open> pair (paper §1, extension)"},
	"eq1":        {Eq1, "Equation 1 term study: suspension, load, and attacker priority (extension)"},
	"eq1-exact":  {Eq1Exact, "exact Equation 1 validation: exhaustive schedule-space enumeration vs MC vs model (extension)"},
	"session":    {SessionStudy, "per-session risk over repeated saves: 1-(1-p)^k (extension)"},
	"gapsweep":   {GapSweep, "gedit v2 success vs rename→chmod gap width (extension)"},
	"patched":    {Patched, "fd-based fchown/fchmod application fix vs the same attacks (extension)"},
	"defense":    {DefenseEvaluation, "attack success with the EDGI-style defense enabled (extension)"},
	"faultsweep": {FaultSweep, "vi attack success under injected faults, by robustness policy (extension)"},
}

// checkpointable lists the experiments whose entire result derives from
// sweep-point CampaignResults, so a checkpoint resume reproduces the
// uninterrupted output exactly. sendmail is excluded deliberately: it
// counts guard-refused rounds through an OnRound observer, a side channel
// a resume cannot replay for already-completed points.
var checkpointable = map[string]bool{
	"fig6": true, "vismp": true, "fig7": true, "headline": true,
	"defense": true, "model": true, "eq1": true, "session": true,
	"gapsweep": true, "patched": true, "faultsweep": true,
}

// SupportsCheckpoint reports whether Options.Checkpoint is meaningful for
// the named experiment.
func SupportsCheckpoint(name string) bool { return checkpointable[name] }

// Names returns the registered experiment names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe returns the one-line description of an experiment.
func Describe(name string) (string, bool) {
	e, ok := registry[name]
	if !ok {
		return "", false
	}
	return e.desc, true
}

// Run executes a registered experiment by name.
func Run(name string, opt Options) (Result, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return e.run(opt)
}
