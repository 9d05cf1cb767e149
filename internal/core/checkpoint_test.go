package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tocttou/internal/machine"
)

// checkpointTestPoints mixes plain, traced, and faulty scenarios so the
// restored results exercise every CampaignResult field the JSON encoding
// must carry (Welford summaries, kernel stats, fault counters).
func checkpointTestPoints() []SweepPoint {
	return []SweepPoint{
		{Scenario: viSc(machine.Uniprocessor(), 100<<10, 95001, false), Rounds: 30},
		{Scenario: viSc(machine.SMP2(), 100<<10, 95003, true), Rounds: 30},
		{Scenario: faultViSc(95005), Rounds: 30},
		{Scenario: viSc(machine.SMP2(), 1, 95007, true), Rounds: 30},
		{Scenario: faultViSc(95009), Rounds: 30},
		{Scenario: viSc(machine.MultiCore(), 50<<10, 95011, false), Rounds: 30},
	}
}

func resultsEqual(t *testing.T, label string, got, want []CampaignResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d diverged:\ngot:  %+v\nwant: %+v", label, i, got[i], want[i])
		}
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	points := checkpointTestPoints()
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// Crash mid-sweep: stop deliberately after three committed points.
	crash := SweepOptions{stopAfterPoints: 3}
	_, _, err = RunSweepPointsCheckpoint(points, crash, path)
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("interrupted sweep err = %v, want ErrSweepInterrupted", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written before the crash: %v", err)
	}

	// Resume: only the missing points run, and the merged results are
	// bit-identical to the uninterrupted sweep.
	got, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	resultsEqual(t, "resume", got, want)
	total := 0
	for _, p := range points {
		total += p.Rounds
	}
	if stats.RoundsExecuted >= total {
		t.Errorf("resume executed %d of %d rounds; restored points must not re-run", stats.RoundsExecuted, total)
	}
	if stats.RoundsExecuted == 0 {
		t.Error("resume executed nothing; the crash should have left points unfinished")
	}

	// A third run restores everything and simulates nothing.
	again, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err != nil {
		t.Fatalf("completed-checkpoint rerun: %v", err)
	}
	resultsEqual(t, "rerun", again, want)
	if stats.RoundsExecuted != 0 {
		t.Errorf("completed checkpoint still executed %d rounds", stats.RoundsExecuted)
	}
}

func TestCheckpointEmptyPathIsPlainSweep(t *testing.T) {
	points := checkpointTestPoints()[:2]
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "empty path", got, want)
}

func TestCheckpointMismatchedSweepRejected(t *testing.T) {
	points := checkpointTestPoints()[:2]
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path); err != nil {
		t.Fatalf("initial sweep: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(ps []SweepPoint)
	}{
		{"file size", func(ps []SweepPoint) { ps[0].Scenario.FileSize += 1024 }},
		{"seed", func(ps []SweepPoint) { ps[1].Scenario.Seed++ }},
		{"budget", func(ps []SweepPoint) { ps[0].Rounds++ }},
		{"fault plan", func(ps []SweepPoint) { ps[1].Scenario.Faults.FSRate = 0.5 }},
		{"watchdog", func(ps []SweepPoint) { ps[0].Scenario.Watchdog = 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			changed := append([]SweepPoint(nil), points...)
			c.mutate(changed)
			_, _, err := RunSweepPointsCheckpoint(changed, SweepOptions{}, path)
			if err == nil || !strings.Contains(err.Error(), "different sweep configuration") {
				t.Errorf("mismatched resume err = %v, want configuration rejection", err)
			}
		})
	}

	// Point-count changes are rejected too.
	_, _, err := RunSweepPointsCheckpoint(points[:1], SweepOptions{}, path)
	if err == nil || !strings.Contains(err.Error(), "different sweep configuration") {
		t.Errorf("shorter resume err = %v, want configuration rejection", err)
	}
}

func TestCheckpointCorruptFileRejected(t *testing.T) {
	points := checkpointTestPoints()[:1]
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
}

func TestCheckpointUnwritablePathFailsRun(t *testing.T) {
	// A checkpoint that cannot be flushed must fail the run rather than
	// silently dropping crash safety.
	points := checkpointTestPoints()[:1]
	path := filepath.Join(t.TempDir(), "no-such-dir", "sweep.ckpt")
	_, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("unwritable checkpoint err = %v, want flush failure", err)
	}
}

// checkpointLine marshals one checkpoint log line, newline included.
func checkpointLine(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// writeCheckpointV2 hand-writes a version-2 checkpoint log: the header
// line, then one line per entry in the order given.
func writeCheckpointV2(t testing.TB, path string, fp uint64, npoints int, entries ...checkpointEntry) {
	t.Helper()
	data := checkpointLine(t, checkpointHeader{Version: checkpointVersion, Fingerprint: fp, Points: npoints})
	for _, e := range entries {
		data = append(data, checkpointLine(t, e)...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkpointV1 is the version-1 layout: one JSON object holding every
// completed point, with no trailing newline.
func checkpointV1(t testing.TB, fp uint64, npoints int, done ...checkpointEntry) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Version     int               `json:"version"`
		Fingerprint uint64            `json:"fingerprint"`
		Points      int               `json:"points"`
		Done        []checkpointEntry `json:"done"`
	}{1, fp, npoints, done})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCheckpointVersion1FileRejected(t *testing.T) {
	points := checkpointTestPoints()[:2]
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	v1 := checkpointV1(t, sweepFingerprint(points, AdaptiveStop{}), len(points),
		checkpointEntry{Point: 0, Result: CampaignResult{Rounds: 30, Successes: 3}})
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("checkpoint %s: version 1, want %d", path, checkpointVersion)
	_, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("sweep over a version-1 file: err = %v, want %q", err, want)
	}
	if _, err := OpenCheckpoint(path, points, AdaptiveStop{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("OpenCheckpoint on a version-1 file: err = %v, want %q", err, want)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, v1) {
		t.Error("a rejected version-1 file was modified")
	}
}

func TestCheckpointTornTailResumesPrefix(t *testing.T) {
	points := checkpointTestPoints()
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	full := filepath.Join(t.TempDir(), "full.ckpt")
	if _, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, full); err != nil {
		t.Fatalf("checkpointed sweep: %v", err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is the length of the header plus the first k entry lines.
	var ends []int
	for i, b := range data {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != 1+len(points) || ends[len(ends)-1] != len(data) {
		t.Fatalf("full checkpoint has %d lines (ends %v, size %d), want header + %d entries", len(ends), ends, len(data), len(points))
	}

	fp := sweepFingerprint(points, AdaptiveStop{})
	cases := []struct {
		name       string
		cut, whole int // file length after the crash, and its whole-line prefix
	}{
		{"header only", ends[0], ends[0]},
		{"mid entry", ends[2] + (ends[3]-ends[2])/2, ends[2]},
		{"after full entry", ends[3], ends[3]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prefix := make(map[int]CampaignResult)
			for _, line := range bytes.SplitAfter(data[ends[0]:c.whole], []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				var e checkpointEntry
				if err := json.Unmarshal(line, &e); err != nil {
					t.Fatal(err)
				}
				prefix[e.Point] = e.Result
			}
			path := filepath.Join(t.TempDir(), "sweep.ckpt")
			if err := os.WriteFile(path, data[:c.cut], 0o644); err != nil {
				t.Fatal(err)
			}

			// First load: exactly the whole-line prefix, and the torn
			// bytes are cut so the next append starts on a line boundary.
			done, err := loadCheckpoint(path, fp, len(points))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if !maps.Equal(done, prefix) {
				t.Fatalf("load restored points %v, want the whole-line prefix %v", keysOf(done), keysOf(prefix))
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data[:c.whole]) {
				t.Fatalf("after load the file is %d bytes (err %v), want its first %d", len(after), err, c.whole)
			}

			// Second load, the resume: only the points outside the prefix
			// run, and the merge matches the uninterrupted sweep.
			got, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			resultsEqual(t, "resume", got, want)
			rest := 0
			for i, p := range points {
				if _, ok := prefix[i]; !ok {
					rest += p.Rounds
				}
			}
			if stats.RoundsExecuted != rest {
				t.Errorf("resume executed %d rounds, want %d (the points past the prefix)", stats.RoundsExecuted, rest)
			}

			// Third load: the re-appended file holds every point.
			all, err := loadCheckpoint(path, fp, len(points))
			if err != nil {
				t.Fatalf("load after resume: %v", err)
			}
			if len(all) != len(points) {
				t.Fatalf("re-appended file holds %d of %d points", len(all), len(points))
			}
			for i := range points {
				if all[i] != want[i] {
					t.Errorf("re-appended point %d diverged from the reference", i)
				}
			}
		})
	}
}

func keysOf(m map[int]CampaignResult) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func TestCheckpointStoreFlushOnlyAppends(t *testing.T) {
	points := checkpointTestPoints()
	res, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, err := OpenCheckpoint(path, points, AdaptiveStop{})
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	want := checkpointLine(t, checkpointHeader{Version: checkpointVersion, Fingerprint: sweepFingerprint(points, AdaptiveStop{}), Points: len(points)})
	check := func(label string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: file is %d bytes, want %d (header plus one line per new point):\ngot:  %q\nwant: %q", label, len(got), len(want), got, want)
		}
	}
	check("fresh store")

	for k, idx := range []int{3, 0, 5, 1} {
		if err := cp.Flush(idx, res[idx]); err != nil {
			t.Fatalf("Flush(%d): %v", idx, err)
		}
		want = append(want, checkpointLine(t, checkpointEntry{Point: idx, Result: res[idx]})...)
		check(fmt.Sprintf("after %d flushes", k+1))
	}

	// Re-flushing a recorded point adds nothing, whatever result it carries.
	if err := cp.Flush(0, res[0]); err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(3, res[2]); err != nil {
		t.Fatal(err)
	}
	check("re-flushing recorded points")

	// Nor does flushing a point a reopened store restored.
	cp2, err := OpenCheckpoint(path, points, AdaptiveStop{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if n := len(cp2.Restored()); n != 4 {
		t.Fatalf("reopened store restored %d points, want 4", n)
	}
	if err := cp2.Flush(5, res[5]); err != nil {
		t.Fatal(err)
	}
	check("flushing a restored point")
}

func TestCheckpointLoadEntryLines(t *testing.T) {
	const npoints = 2
	fp := uint64(0x5eed)
	a := CampaignResult{Rounds: 30, Successes: 7}
	b := a
	b.Successes++
	header := checkpointLine(t, checkpointHeader{Version: checkpointVersion, Fingerprint: fp, Points: npoints})
	entry := func(p int, r CampaignResult) []byte { return checkpointLine(t, checkpointEntry{Point: p, Result: r}) }
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	cases := []struct {
		name    string
		data    []byte
		want    map[int]CampaignResult // nil: the file is rejected
		keep    int                    // bytes left after an accepted load
		wantErr string
	}{
		{
			name: "identical duplicate ignored",
			data: join(header, entry(0, a), entry(1, b), entry(0, a)),
			want: map[int]CampaignResult{0: a, 1: b},
		},
		{
			name:    "differing duplicate rejected",
			data:    join(header, entry(0, a), entry(0, b), entry(1, a)),
			wantErr: "point 0 recorded twice with different results",
		},
		{
			name: "unparsable final line dropped",
			data: join(header, entry(0, a), []byte("{\"point\":1,\"resu\n")),
			want: map[int]CampaignResult{0: a},
			keep: len(header) + len(entry(0, a)),
		},
		{
			name: "entry without its result dropped when final",
			data: join(header, entry(0, a), []byte("{\"point\":1}\n")),
			want: map[int]CampaignResult{0: a},
			keep: len(header) + len(entry(0, a)),
		},
		{
			name:    "unparsable line before the last rejected",
			data:    join(header, []byte("{\"point\":1,\"resu\n"), entry(0, a)),
			wantErr: "corrupt entry",
		},
		{
			name:    "point out of range rejected",
			data:    join(header, entry(npoints, a)),
			wantErr: "out of range",
		},
		{
			name:    "header without its newline rejected",
			data:    header[:len(header)-1],
			wantErr: "corrupt",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.ckpt")
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			done, err := loadCheckpoint(path, fp, npoints)
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if c.want == nil {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, c.wantErr)
				}
				if !bytes.Equal(after, c.data) {
					t.Error("a rejected file was modified")
				}
				return
			}
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if !maps.Equal(done, c.want) {
				t.Errorf("restored %+v, want %+v", done, c.want)
			}
			keep := c.keep
			if keep == 0 {
				keep = len(c.data)
			}
			if !bytes.Equal(after, c.data[:keep]) {
				t.Errorf("file after load is %d bytes, want its first %d", len(after), keep)
			}
		})
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader as an
// existing file for a fixed three-point sweep. Whatever the bytes, the
// loader must not panic; it either rejects the file and leaves it as it
// was, or returns in-range points after at most cutting a tail off, and
// loading the result again returns the same points.
func FuzzLoadCheckpoint(f *testing.F) {
	points := checkpointTestPoints()[:3]
	fp := sweepFingerprint(points, AdaptiveStop{})
	src := filepath.Join(f.TempDir(), "seed.ckpt")
	if _, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, src); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-len(data)/4])
	f.Add(checkpointV1(f, fp, len(points), checkpointEntry{Point: 1, Result: CampaignResult{Rounds: 30}}))

	// Executions within one fuzzing process run one at a time, so they
	// share a path; a directory per execution would make the minimizer
	// crawl.
	path := filepath.Join(f.TempDir(), "sweep.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := loadCheckpoint(path, fp, len(points))
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("rejected file was modified: %v", err)
			}
			return
		}
		for p := range first {
			if p < 0 || p >= len(points) {
				t.Fatalf("loaded point %d out of range", p)
			}
		}
		if !bytes.HasPrefix(data, after) {
			t.Fatal("load rewrote the file instead of truncating it")
		}
		second, err := loadCheckpoint(path, fp, len(points))
		if err != nil {
			t.Fatalf("second load of an accepted file: %v", err)
		}
		if !maps.Equal(first, second) {
			t.Fatalf("second load restored %v, first %v", keysOf(second), keysOf(first))
		}
	})
}
