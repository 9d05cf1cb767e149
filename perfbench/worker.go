package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"tocttou/internal/workerpool"
)

// The traced fleet's worker: the same workerpool.Serve a `tocttoud
// -worker` process runs, reached through pipes that timestamp and count
// every protocol line in each direction. The supervisor SIGKILLs workers
// when a campaign settles, so each line is logged with its own write the
// moment it passes: the log is complete up to the kill.

func workerMain(logDir string) error {
	start := time.Now()
	f, err := os.Create(filepath.Join(logDir, fmt.Sprintf("worker-%d.log", os.Getpid())))
	if err != nil {
		return err
	}
	defer f.Close()
	logLine := func(dir string, line []byte) {
		var m struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(line, &m) != nil {
			m.Type = "torn"
		}
		// One write per record; a failed log write only loses trace data.
		_, _ = fmt.Fprintf(f, "%d %s %s %d\n", time.Now().UnixNano(), dir, m.Type, len(line)+1) // +1: the newline
	}
	_, _ = fmt.Fprintf(f, "%d start - 0\n", start.UnixNano())

	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	go pump(os.Stdin, inW, func(l []byte) { logLine("in", l) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		pump(outR, os.Stdout, func(l []byte) { logLine("out", l) })
	}()
	err = workerpool.Serve(inR, outW)
	outW.Close()
	<-done
	return err
}

// pump copies newline-terminated lines from r to w, calling seen on
// each before forwarding it. When r ends it closes w if w is a pipe.
func pump(r io.Reader, w io.Writer, seen func([]byte)) {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			seen(bytes.TrimSuffix(line, []byte("\n")))
			if _, werr := w.Write(line); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	if pw, ok := w.(*io.PipeWriter); ok {
		pw.Close()
	}
}

// workerStats is the fleet's protocol traffic, folded from the logs.
type workerStats struct {
	spawnToLoad []float64 // ms, per worker: main() entry → loaded sent
	leaseRTT    []float64 // ms, per lease: lease received → ack sent
	idleWait    float64   // ms, summed: ready (loaded/ack sent) → next lease
	leases      int
	msgs        int
	bytes       int64
	busy, life  time.Duration
}

func readWorkerLogs(dir string) (*workerStats, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "worker-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	ws := &workerStats{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var start, ready, leaseAt, last int64
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			f := strings.Fields(line)
			if len(f) != 4 {
				continue // a record torn by the kill
			}
			t, _ := strconv.ParseInt(f[0], 10, 64)
			n, _ := strconv.Atoi(f[3])
			last = t
			switch dir, typ := f[1], f[2]; {
			case dir == "start":
				start = t
				continue
			case dir == "out" && typ == workerpool.MsgLoaded:
				ws.spawnToLoad = append(ws.spawnToLoad, float64(t-start)/1e6)
				ready = t
			case dir == "in" && typ == workerpool.MsgLease:
				ws.leases++
				leaseAt = t
				if ready > 0 {
					ws.idleWait += float64(t-ready) / 1e6
				}
			case dir == "out" && typ == workerpool.MsgAck:
				ws.leaseRTT = append(ws.leaseRTT, float64(t-leaseAt)/1e6)
				ws.busy += time.Duration(t - leaseAt)
				ready = t
			}
			ws.msgs++
			ws.bytes += int64(n)
		}
		if start > 0 {
			ws.life += time.Duration(last - start)
		}
	}
	return ws, nil
}
