// Command tocttoud serves campaigns over HTTP: clients submit the same
// declarative scenario files `tocttou -scenario` runs, the daemon shards
// their sweep points across a bounded worker pool, and every committed
// point streams to watchers as NDJSON. Jobs are durable — a killed and
// restarted daemon resumes in-flight campaigns bit-identically from
// their checkpoints — and identical re-submissions are cache hits.
//
// Usage:
//
//	tocttoud -listen 127.0.0.1:8080 -data ./tocttoud-data [-max-jobs 2]
//	tocttoud -listen 127.0.0.1:0 -addr-file addr.txt   (scripts learn the port)
//	tocttoud -workers 4                                (supervised worker fleet)
//
// With -workers N > 0 each campaign's points execute in a fleet of N
// supervised subprocesses (the daemon re-executes itself with -worker):
// a crashing or stalling point costs one worker process and a lease
// requeue, never the daemon. -heartbeat-interval, -lease-timeout, and
// -max-point-retries tune the supervision.
//
// SIGTERM or SIGINT drains gracefully: new submissions get 503, running
// sweeps stop at the next point boundary with their checkpoints flushed,
// worker fleets are killed and reaped (no orphans), and interrupted jobs
// resume on the next start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tocttou/internal/campaignd"
	"tocttou/internal/workerpool"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "tocttoud: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("tocttoud", flag.ContinueOnError)
	listen := fl.String("listen", "127.0.0.1:8080", "address to serve the campaign API on")
	dataDir := fl.String("data", "tocttoud-data", "durability root: specs, checkpoints, event logs, reports")
	maxJobs := fl.Int("max-jobs", 0, "max concurrently running campaigns (0 = default 2)")
	addrFile := fl.String("addr-file", "", "write the bound address to this file once listening (useful with -listen :0)")
	worker := fl.Bool("worker", false, "run as a fleet worker over stdin/stdout (internal; spawned by -workers)")
	workers := fl.Int("workers", 0, "execute campaigns in a supervised fleet of this many worker subprocesses (0 = in-process)")
	heartbeat := fl.Duration("heartbeat-interval", 100*time.Millisecond, "worker heartbeat pacing (fleet mode)")
	leaseTimeout := fl.Duration("lease-timeout", 10*time.Second, "kill a worker silent for this long and requeue its lease (fleet mode)")
	maxRetries := fl.Int("max-point-retries", 3, "worker kills one point may cause before it is quarantined (fleet mode)")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fl.Args())
	}
	if *worker {
		return workerpool.Serve(os.Stdin, os.Stdout)
	}
	if *maxJobs < 0 {
		return fmt.Errorf("-max-jobs must be >= 0, got %d", *maxJobs)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *heartbeat <= 0 {
		return fmt.Errorf("-heartbeat-interval must be > 0, got %v", *heartbeat)
	}
	if *leaseTimeout <= 0 {
		return fmt.Errorf("-lease-timeout must be > 0, got %v", *leaseTimeout)
	}
	if *leaseTimeout <= *heartbeat {
		return fmt.Errorf("-lease-timeout %v must exceed -heartbeat-interval %v", *leaseTimeout, *heartbeat)
	}
	if *maxRetries <= 0 {
		return fmt.Errorf("-max-point-retries must be > 0, got %d", *maxRetries)
	}
	// Fail fast on a typoed chaos schedule: the same parse a worker would
	// do at spawn time, surfaced at daemon startup instead.
	if v := os.Getenv("TOCTTOU_CHAOS"); v != "" {
		if _, err := workerpool.ParseSchedule(v); err != nil {
			return fmt.Errorf("TOCTTOU_CHAOS: %w", err)
		}
	}

	logger := log.New(os.Stderr, "tocttoud: ", log.LstdFlags|log.Lmicroseconds)
	cfg := campaignd.Config{
		DataDir:       *dataDir,
		MaxActiveJobs: *maxJobs,
		Logf:          logger.Printf,
	}
	if *workers > 0 {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("-workers: locating own binary: %w", err)
		}
		cfg.Workers = *workers
		cfg.WorkerCommand = []string{exe, "-worker"}
		cfg.HeartbeatInterval = *heartbeat
		cfg.LeaseTimeout = *leaseTimeout
		cfg.MaxPointRetries = *maxRetries
	}
	srv, err := campaignd.New(cfg)
	if err != nil {
		return err
	}

	// The drain handler goes in before the listener exists, so a client
	// that sees the daemon ready (-addr-file, a served request) can always
	// stop it gracefully.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s (data %s)", ln.Addr(), *dataDir)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("-addr-file: %w", err)
		}
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case sig := <-sigc:
		logger.Printf("received %v; draining (in-flight points finish committing, checkpoints flush)", sig)
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
		logger.Printf("drained; interrupted campaigns resume on the next start")
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
