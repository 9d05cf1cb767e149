package main

// The daemon subprocess in these tests is this test binary itself:
// TestMain diverts re-executions flagged with TOCTTOUD_DAEMON_PROCESS=1
// into main before any test runs.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if os.Getenv("TOCTTOUD_DAEMON_PROCESS") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A SIGTERM sent the instant -addr-file appears must drain the daemon,
// never kill it: the signal handler is installed before the daemon
// announces readiness. Repeated because the window it guards is a few
// microseconds wide.
func TestSIGTERMAtReadinessDrains(t *testing.T) {
	const runs = 20
	for i := 0; i < runs; i++ {
		dir := t.TempDir()
		addrFile := filepath.Join(dir, "addr")
		cmd := exec.Command(os.Args[0],
			"-listen", "127.0.0.1:0",
			"-data", filepath.Join(dir, "data"),
			"-addr-file", addrFile)
		cmd.Env = append(os.Environ(), "TOCTTOUD_DAEMON_PROCESS=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()

		// Spin on the file's existence: the earliest moment a script could
		// learn the address.
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := os.Stat(addrFile); err == nil {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				<-done
				t.Fatalf("run %d: -addr-file never appeared; stderr:\n%s", i, stderr.String())
			}
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("run %d: SIGTERM: %v", i, err)
		}

		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d: daemon exited with %v, want a clean drain; stderr:\n%s", i, err, stderr.String())
			}
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Fatalf("run %d: daemon did not exit after SIGTERM; stderr:\n%s", i, stderr.String())
		}
		if !strings.Contains(stderr.String(), "drained;") {
			t.Fatalf("run %d: exit 0 without the drained log line; stderr:\n%s", i, stderr.String())
		}
	}
}
