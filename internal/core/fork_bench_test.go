package core

import (
	"testing"

	"tocttou/internal/attack"
	"tocttou/internal/machine"
	"tocttou/internal/victim"
)

// benchScenario is the Fig 6 sweep's first point: the uniprocessor vi
// round the forked-round benchmarks and allocation pins time.
func benchScenario() Scenario {
	return Scenario{
		Machine:    machine.Uniprocessor(),
		Victim:     victim.NewVi(),
		Attacker:   attack.NewV1(),
		UseSyscall: "chown",
		FileSize:   100 << 10,
		Seed:       1007,
	}
}

// BenchmarkForkedRound times rounds through the prefix-forking path a
// sweep worker takes from the second round of a point onward: every
// iteration is one Kernel.Fork + FS.Fork + full simulated round.
func BenchmarkForkedRound(b *testing.B) {
	sc := benchScenario()
	var st roundState
	if _, err := runRound(sc, &st); err != nil {
		b.Fatal(err)
	}
	if !st.prefix.valid {
		b.Fatal("prefix not captured; scenario unexpectedly not forkable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Seed = 1007 + int64(i+1)*SeedStride
		if _, err := runRound(sc, &st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassicRound times the same scenario through the classic
// rebuild-everything path (fresh kernel, fixture, goroutines per round)
// for comparison against BenchmarkForkedRound.
func BenchmarkClassicRound(b *testing.B) {
	sc := benchScenario()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Seed = 1007 + int64(i+1)*SeedStride
		if _, err := RunRound(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestForkedRoundAllocBudget pins the per-round allocation count of the
// forked path. The budget is deliberately tight: the forking machinery
// exists to make rounds (nearly) allocation-free, and a regression here
// silently erodes the throughput the acceptance benchmarks gate on.
func TestForkedRoundAllocBudget(t *testing.T) {
	sc := benchScenario()
	var st roundState
	if _, err := runRound(sc, &st); err != nil {
		t.Fatal(err)
	}
	seed := int64(1)
	avg := testing.AllocsPerRun(50, func() {
		sc.Seed = 1007 + seed*SeedStride
		seed++
		if _, err := runRound(sc, &st); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 54
	if avg > budget {
		t.Fatalf("forked round allocates %.1f objects/round, budget %d", avg, budget)
	}
	t.Logf("forked round: %.1f allocs/round (budget %d)", avg, budget)
}
