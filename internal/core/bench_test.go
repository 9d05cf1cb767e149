package core

import (
	"testing"

	"tocttou/internal/machine"
)

// BenchmarkRoundFresh measures one traced vi SMP round built from scratch
// — the RunRound path, paying for a new kernel, FS, and trace buffer.
func BenchmarkRoundFresh(b *testing.B) {
	b.ReportAllocs()
	sc := viSc(machine.SMP2(), 100<<10, 1, true)
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(i + 1)
		if _, err := RunRound(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundReused measures the same round through a reused
// roundState — the campaign steady state, where the kernel, FS tree, and
// trace buffer are recycled. The delta against BenchmarkRoundFresh is the
// payoff of round-context reuse.
func BenchmarkRoundReused(b *testing.B) {
	b.ReportAllocs()
	sc := viSc(machine.SMP2(), 100<<10, 1, true)
	var st roundState
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(i + 1)
		if _, err := runRound(sc, &st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignViSMP measures a small parallel campaign end to end and
// reports per-round cost.
func BenchmarkCampaignViSMP(b *testing.B) {
	b.ReportAllocs()
	const rounds = 100
	sc := viSc(machine.SMP2(), 100<<10, 1, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCampaign(sc, rounds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
}
