package main

import (
	"fmt"
	"strings"
)

// Spec generators. Every workload's input is a scenario file generated
// from the benchmark seed alone, so the program under test only ever
// receives generated inputs and the same seed always yields the same
// bytes. A seed moves the simulation and jitter seeds, never the shape
// of the grid, so every seed costs the same to within a few percent.

// splitmix64 is the seed mixer (the same finalizer the repository's
// fleet generator uses), so neighbouring benchmark seeds give unrelated
// simulation seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the i-th value of the seed's stream, in [0, n).
func draw(seed int64, i, n uint64) int64 {
	return int64(splitmix64(uint64(seed)*0x100+i) % n)
}

// Long-points grid: the vi/v1/chown sweep of
// examples/scenarios/service-kill.yaml — 20 sizes × longRounds rounds on
// the smp2 profile — where almost all of the time is rounds.
const (
	longRounds = 3000
	longPoints = 20
)

// longPointsSpec is the grid the CLI and fleet workloads run. With
// onePoint it is the same spec cut to its first size and one round: the
// CLI's set-up probe (process start, load, compile, one round, render).
func longPointsSpec(seed int64, onePoint bool) []byte {
	simSeed := 70001 + draw(seed, 0, 1_000_000)
	rounds, from, to := longRounds, 100, 100*longPoints
	name := "long-points"
	if onePoint {
		rounds, to, name = 1, from, "long-points-setup"
	}
	points := (to-from)/100 + 1
	var b strings.Builder
	fmt.Fprintf(&b, "# Generated from benchmark seed %d.\n", seed)
	fmt.Fprintf(&b, "name: %s\n", name)
	fmt.Fprintf(&b, "description: vi/v1/chown sweep on smp2, %d sizes x %d rounds\n", points, rounds)
	b.WriteString("machine: smp2\n")
	fmt.Fprintf(&b, "rounds: %d\n", rounds)
	fmt.Fprintf(&b, "seed: %d\n", simSeed)
	b.WriteString("seed_stride: 7919\nvictim: vi\nattacker: v1\nsyscall: chown\n")
	fmt.Fprintf(&b, "sizes_kb:\n  from: %d\n  to: %d\n  step: 100\n", from, to)
	b.WriteString("assertions:\n")
	fmt.Fprintf(&b, "  - metric: rounds\n    min: %d\n    max: %d\n", points*rounds, points*rounds)
	if !onePoint {
		// The paper's headline holds on every seed: on a multiprocessor
		// the vi race is all but certain.
		b.WriteString("  - metric: success_rate\n    min: 0.5\n")
	}
	return []byte(b.String())
}

// Many-points fleet: the shape of examples/scenarios/fleet.yaml with
// light faults, manyPoints members of 3 rounds each. Rounds are trivial;
// the time goes to committing, checkpointing and streaming points.
const (
	manyPoints = 200
	manyRounds = 3
)

func manyPointsSpec(seed int64) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# Generated from benchmark seed %d.\n", seed)
	b.WriteString("name: many-points\n")
	fmt.Fprintf(&b, "description: mixed editor fleet of %d members under light faults\n", manyPoints)
	b.WriteString("machine: smp\n")
	fmt.Fprintf(&b, "rounds: %d\n", manyRounds)
	fmt.Fprintf(&b, "seed: %d\n", 40009+draw(seed, 0, 1_000_000))
	b.WriteString("seed_stride: 7919\n")
	b.WriteString("fleet:\n")
	fmt.Fprintf(&b, "  total: %d\n", manyPoints)
	fmt.Fprintf(&b, "  jitter_seed: %d\n", 271828+draw(seed, 1, 1_000_000))
	b.WriteString(`  templates:
    - name: vi-small
      weight: 5
      victim: vi
      attacker: v1
      size_kb:
        min: 20
        max: 60
    - name: gedit-mid
      weight: 3
      victim: gedit
      attacker: v2
      size_kb:
        min: 40
        max: 80
    - name: patched
      weight: 2
      victim: vi-fixed
      attacker: v1
      size_kb: 50
`)
	b.WriteString("faults:\n")
	fmt.Fprintf(&b, "  seed: %d\n", 9973+draw(seed, 2, 1_000_000))
	b.WriteString("  fs_rate: 0.01\n  sem_intr_rate: 0.01\n  sem_intr_delay_us: 1\n  kill_window_ms: 4\n")
	b.WriteString("watchdog_ms: 5000\n")
	b.WriteString("assertions:\n")
	fmt.Fprintf(&b, "  - metric: rounds\n    min: %d\n    max: %d\n", manyPoints*manyRounds, manyPoints*manyRounds)
	b.WriteString("  # The patched editor's save path closes the race.\n")
	b.WriteString("  - metric: success_rate\n    template: patched\n    max: 0\n")
	return []byte(b.String())
}
