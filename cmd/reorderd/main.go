// Command reorderd is the long-running query service: HTTP/JSON in
// front of the reorder library, with a fingerprint-keyed plan cache,
// parameterized plans, and guard-based admission control.
//
//	reorderd -demo -addr :8080
//	reorderd -data ./csvdir -addr :0
//
// Endpoints: POST /query, GET /metrics, /debug/queries, /debug/cache.
// With -addr :0 the bound address is printed to stderr, which is how
// the smoke tests discover the port.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/relation"
	"repro/internal/value"
)

const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a slow client cannot hold one open indefinitely.
const readHeaderTimeout = 10 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable entry point. stop, when non-nil, triggers the
// same graceful shutdown as SIGINT/SIGTERM.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("reorderd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port, printed to stderr)")
		data        = fs.String("data", "", "directory of *.csv base relations")
		demo        = fs.Bool("demo", false, "serve the built-in demo database (r1..r7, 50 rows each)")
		cacheBytes  = fs.Int64("cache-bytes", 64<<20, "plan cache byte budget")
		concurrency = fs.Int("concurrency", 8, "max requests optimizing/executing at once")
		queue       = fs.Int("queue", 32, "max requests waiting for a slot before shedding")
		timeout     = fs.Duration("timeout", 5*time.Second, "per-request deadline ceiling")
		maxRows     = fs.Int64("max-rows", 0, "per-request intermediate-row budget (0 = unlimited)")
		maxBytes    = fs.Int64("max-bytes", 0, "per-request intermediate-byte budget (0 = unlimited)")
		flightCap   = fs.Int("flight", 0, "flight recorder capacity (0 = default)")
		drain       = fs.Duration("drain", 5*time.Second, "graceful shutdown drain window")
		feedback    = fs.Bool("feedback", false, "enable cardinality feedback: instrumented execution and drift-triggered re-planning")
		replanQ     = fs.Float64("replan-qerror", 10, "max subtree q-error past which a run counts as drifted (with -feedback)")
		replanAfter = fs.Int("replan-after", 3, "consecutive drifted runs before re-planning (with -feedback)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	var db reorder.Database
	switch {
	case *demo && *data != "":
		fmt.Fprintln(stderr, "reorderd: -demo and -data are mutually exclusive")
		return exitUsage
	case *demo:
		db = demoDB()
	case *data != "":
		var err error
		db, err = reorder.LoadCSVDir(*data)
		if err != nil {
			fmt.Fprintf(stderr, "reorderd: %v\n", err)
			return exitRuntime
		}
	default:
		fmt.Fprintln(stderr, "reorderd: one of -demo or -data is required")
		return exitUsage
	}

	svc, err := reorder.NewService(reorder.ServiceConfig{
		DB:             db,
		CacheBytes:     *cacheBytes,
		MaxConcurrent:  *concurrency,
		MaxQueue:       *queue,
		DefaultTimeout: *timeout,
		DefaultLimits:  reorder.Limits{MaxRows: *maxRows, MaxBytes: *maxBytes},
		FlightCap:      *flightCap,
		Feedback:       *feedback,
		ReplanQError:   *replanQ,
		ReplanAfter:    *replanAfter,
	})
	if err != nil {
		fmt.Fprintf(stderr, "reorderd: %v\n", err)
		return exitRuntime
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "reorderd: listen %s: %v\n", *addr, err)
		return exitRuntime
	}
	fmt.Fprintf(stderr, "reorderd: serving on %s (%d relations)\n", ln.Addr(), len(db))

	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "reorderd: %v\n", err)
		return exitRuntime
	case <-sigc:
	case <-stopChan(stop):
	}
	fmt.Fprintln(stderr, "reorderd: draining")
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "reorderd: shutdown: %v\n", err)
		return exitRuntime
	}
	return exitOK
}

// stopChan never fires for a nil stop channel.
func stopChan(stop <-chan struct{}) <-chan struct{} {
	if stop == nil {
		return make(chan struct{})
	}
	return stop
}

// demoDB builds the benchmark database served by -demo: seven
// relations r1..r7 of 50 rows with int columns x (0..8) and y (0..5),
// small enough that the demo service exercises ms-scale optimizations
// against sub-ms executions.
func demoDB() reorder.Database {
	db := reorder.Database{}
	for i := 1; i <= 7; i++ {
		name := fmt.Sprintf("r%d", i)
		b := relation.NewBuilder(name, "x", "y")
		for j := 0; j < 50; j++ {
			b.Row(value.NewInt(int64(j%9)), value.NewInt(int64(j%6)))
		}
		db[name] = b.Relation()
	}
	return db
}
