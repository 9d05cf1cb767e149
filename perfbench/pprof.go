package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// Self CPU time per package from a runtime/pprof CPU profile, read with
// the Go toolchain's own pprof.

// profPackages are the packages a traced run reports self time for,
// keyed by metric suffix.
var profPackages = []struct{ suffix, prefix string }{
	{"sim", "tocttou/internal/sim"},
	{"fs", "tocttou/internal/fs"},
	{"victim", "tocttou/internal/victim"},
	{"attack", "tocttou/internal/attack"},
	{"userland", "tocttou/internal/userland"},
	{"core", "tocttou/internal/core"},
	{"metrics", "tocttou/internal/metrics"},
	{"scenario", "tocttou/internal/scenario"},
	{"campaignd", "tocttou/internal/campaignd"},
	{"workerpool", "tocttou/internal/workerpool"},
	{"encoding_json", "encoding/json"},
	{"runtime", "runtime"},
}

// funcPackage returns the import path of a symbol such as
// "tocttou/internal/sim.(*Kernel).run" or "runtime.mallocgc".
func funcPackage(sym string) string {
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// packageSuffix maps an import path to its profPackages suffix, or "".
// The runtime's internal packages count as runtime.
func packageSuffix(pkg string) string {
	if strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/") {
		return "runtime"
	}
	for _, p := range profPackages {
		if pkg == p.prefix {
			return p.suffix
		}
	}
	return ""
}

// selfCPUByPackage sums the profile's flat (leaf-function) CPU time by
// profPackages suffix, in seconds, from `go tool pprof -top`.
func selfCPUByPackage(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0",
		"-symbolize=none", "-unit=ms", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	return flatByPackage(top)
}

// flatByPackage parses the rows of `pprof -top -unit=ms` — flat, flat%,
// sum%, cum, cum%, function — and sums the flat column by profPackages
// suffix, in seconds. Header lines do not parse as rows and are skipped.
func flatByPackage(top []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	rows := 0
	for _, line := range strings.Split(string(top), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		rows++
		if s := packageSuffix(funcPackage(f[5])); s != "" {
			out[s] += flat / 1e3
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("no rows in pprof output")
	}
	return out, nil
}
