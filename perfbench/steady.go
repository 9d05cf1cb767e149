package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// Steadiness mode: two sets of runs of every workload, in alternating
// order (set A first on even rounds, set B first on odd ones), each run
// a fresh benchmark process on the same seeds 1..runs. For every
// end-to-end metric it prints each set's median and quartiles and
// whether the two medians agree within the metric's bound from
// BENCHMARK.json: the larger median may exceed the smaller by at most
// the bound. A later change uses this to tell "unresolved" (the
// sets of one commit disagree by more than the bound) from "unchanged".
//
// heldOutSeed is never used while tuning the benchmark or a change;
// a claimed gain must also hold on it.
const heldOutSeed = 1000003

type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBounds(root string) (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

func steadyMain(root string, runs, seconds int) error {
	bounds, err := readBounds(root)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// vals[set][workload][metric] holds one median per run.
	vals := [2]map[string]map[string][]float64{{}, {}}
	failures := 0
	for r := 0; r < runs; r++ {
		order := []int{0, 1}
		if r%2 == 1 {
			order = []int{1, 0}
		}
		for _, set := range order {
			for _, wl := range workloads {
				seed := int64(r + 1)
				res, err := runChild(exe, root, wl.name, seed, seconds)
				if err != nil || !res.Correct {
					failures++
					fmt.Fprintf(os.Stderr, "steady: %s seed %d set %c: %v (correct=%v)\n", wl.name, seed, 'A'+set, err, res != nil && res.Correct)
					continue
				}
				if vals[set][wl.name] == nil {
					vals[set][wl.name] = make(map[string][]float64)
				}
				for name, mv := range res.Metrics {
					vals[set][wl.name][name] = append(vals[set][wl.name][name], mv.Value)
				}
			}
		}
	}

	agreeAll := failures == 0
	fmt.Printf("\n%-20s %-12s %-36s %-36s %8s %6s %s\n", "workload", "metric", "set A median [q1, q3]", "set B median [q1, q3]", "max/min-1", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			a, b := vals[0][wl.name][m.name], vals[1][wl.name][m.name]
			if len(a) == 0 || len(b) == 0 {
				agreeAll = false
				fmt.Printf("%-20s %-12s no samples\n", wl.name, m.name)
				continue
			}
			sa, sb := summarize(a), summarize(b)
			// Symmetric: the larger median over the smaller, so the verdict
			// does not depend on which set is called A.
			diff := math.Max(sa.Median, sb.Median)/math.Min(sa.Median, sb.Median) - 1
			verdict := "agree"
			if diff > bounds[m.name] {
				verdict = "DISAGREE"
				agreeAll = false
			}
			fmt.Printf("%-20s %-12s %-36s %-36s %8.2f%% %5.0f%% %s (spread A %.1f%%, B %.1f%%)\n", wl.name, m.name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", sa.Median, sa.Q1, sa.Q3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", sb.Median, sb.Q1, sb.Q3),
				diff*100, bounds[m.name]*100, verdict,
				(sa.Q3-sa.Q1)/sa.Median*100, (sb.Q3-sb.Q1)/sb.Median*100)
		}
	}
	fmt.Printf("held-out seed for claims: %d\n", heldOutSeed)
	if !agreeAll {
		return fmt.Errorf("the two sets do not agree within the bounds (%d failed runs)", failures)
	}
	fmt.Println("steady: both sets agree within every bound")
	return nil
}

// runChild runs one benchmark invocation and parses its result line.
func runChild(exe, root, wl string, seed int64, seconds int) (*result, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "-root", root, "-workload", wl, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &res, nil
}
