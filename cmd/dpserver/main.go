// Command dpserver runs the multi-tenant differentially private query
// service: a long-lived HTTP/JSON server exposing the library's free-gap
// mechanisms to remote clients, each drawing from its own privacy budget.
//
// Usage:
//
//	dpserver -addr :8080 -budget 10 -workers 8
//	dpserver -addr :8080 -seed 42 -workers 1   # fully deterministic (testing)
//	dpserver -preload sales=/data/bmspos.dat -preload-synthetic demo=kosarak:100
//	dpserver -state-dir /var/lib/dpserver          # durable budgets & datasets
//	dpserver -state-dir /var/lib/dpserver -fsync always
//	dpserver -access-log -slow-ms 250 -debug       # JSON access logs + pprof
//
// Endpoints (one per mechanism registered in the engine, plus operations):
//
//	POST /v1/topk                  Noisy-Top-K-with-Gap selection
//	POST /v1/max                   Noisy-Max-with-Gap
//	POST /v1/svt                   (Adaptive-)Sparse-Vector-with-Gap
//	POST /v1/pipeline/topk         Section 5.2 select–measure–refine pipeline
//	POST /v1/pipeline/svt          Section 6.2 threshold pipeline
//	POST /v1/batch                 batched requests, one atomic multi-charge
//	POST /v1/datasets              catalogue a dataset (FIMI upload or synthetic)
//	GET  /v1/datasets              list catalogued datasets
//	GET  /v1/datasets/{name}       one dataset's stats and counters
//	POST /v1/datasets/{name}/append  append FIMI transactions; counts update incrementally
//	POST /v1/monitors              register a served SVT threshold monitor
//	GET  /v1/monitors              list monitors
//	GET  /v1/monitors/{id}         one monitor's state and budget
//	GET  /v1/monitors/{id}/stream  the monitor's verdicts as Server-Sent Events
//	GET  /v1/tenants/{id}/budget   a tenant's budget ledger with breakdown
//	GET  /healthz                  liveness
//	GET  /metrics                  Prometheus text exposition
//
// Example request with inline answers:
//
//	curl -s localhost:8080/v1/topk -d '{
//	  "tenant": "acme", "k": 3, "epsilon": 1.0, "monotonic": true,
//	  "answers": [812, 641, 633, 601, 425, 124, 77, 8]
//	}'
//
// Example dataset-backed request (the server holds the data — the paper's
// curator model — and answers counting queries from item counts cached at
// registration):
//
//	curl -s localhost:8080/v1/topk -d '{
//	  "tenant": "acme", "k": 3, "epsilon": 1.0,
//	  "dataset": "sales", "queries": {"kind": "all_items"}
//	}'
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	freegap "github.com/freegap/freegap"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dpserver:", err)
		os.Exit(1)
	}
}

// options is the parsed command line: the server configuration plus the
// durability settings that construct Config.Persist in run.
type options struct {
	freegap.ServerConfig
	// StateDir is the durable state directory; empty means in-memory only.
	StateDir string
	// Fsync is the WAL durability mode (batch, always or off).
	Fsync freegap.FsyncMode
}

func parseConfig(args []string) (options, error) {
	fs := flag.NewFlagSet("dpserver", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		budget     = fs.Float64("budget", 10.0, "initial privacy budget (epsilon) provisioned to each tenant")
		workers    = fs.Int("workers", 0, "mechanism worker pool size (0 = GOMAXPROCS)")
		seed       = fs.Uint64("seed", 0, "noise seed; 0 draws a fresh seed from crypto/rand, a fixed value with -workers 1 is deterministic")
		maxAns     = fs.Int("max-answers", 0, "maximum answers per request (0 = default)")
		maxBody    = fs.Int64("max-body", 0, "maximum request body bytes (0 = default)")
		maxTenants = fs.Int("max-tenants", 0, "maximum auto-provisioned tenants (0 = default)")
		stateDir   = fs.String("state-dir", "", "directory for durable state (WAL + snapshots); empty = in-memory only, a restart refunds all spent budget")
		noSkip     = fs.Bool("no-query-skipping", false, "disable data skipping (zone-sketch length ranges, item posting lists, the record-length table): composite filter queries scan every record block (results are identical either way)")
		fsyncMode  = fs.String("fsync", "batch", "WAL durability: batch (group fsync off the hot path), always (fsync per charge), off")
		debug      = fs.Bool("debug", false, "mount /debug/pprof and runtime gauges on /metrics")
		accessLog  = fs.Bool("access-log", false, "log one structured JSON record per request to stderr")
		slowMs     = fs.Int("slow-ms", 0, "log requests slower than this many milliseconds even without -access-log (0 = 1000, negative disables)")
		preloads   []freegap.DatasetPreload
	)
	fs.Func("preload", "name=path: serve the FIMI-format dataset file under the given name (repeatable)", func(v string) error {
		p, err := parsePreloadFile(v)
		if err == nil {
			preloads = append(preloads, p)
		}
		return err
	})
	fs.Func("preload-synthetic", "name=kind[:scale[:seed]]: serve a synthetic dataset (bmspos, kosarak or t40i10d100k) under the given name (repeatable)", func(v string) error {
		p, err := parsePreloadSynthetic(v)
		if err == nil {
			preloads = append(preloads, p)
		}
		return err
	})
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	mode, err := freegap.ParseFsyncMode(*fsyncMode)
	if err != nil {
		return options{}, err
	}
	cfg := freegap.ServerConfig{
		Addr:                 *addr,
		TenantBudget:         *budget,
		Workers:              *workers,
		Seed:                 *seed,
		MaxAnswers:           *maxAns,
		MaxBodyBytes:         *maxBody,
		MaxTenants:           *maxTenants,
		Preload:              preloads,
		Debug:                *debug,
		DisableQuerySkipping: *noSkip,
	}
	if *accessLog {
		cfg.AccessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	switch {
	case *slowMs < 0:
		cfg.SlowRequestThreshold = -1
	case *slowMs > 0:
		cfg.SlowRequestThreshold = time.Duration(*slowMs) * time.Millisecond
	}
	return options{
		ServerConfig: cfg,
		StateDir:     *stateDir,
		Fsync:        mode,
	}, nil
}

// parsePreloadFile parses a -preload value of the form name=path.
func parsePreloadFile(v string) (freegap.DatasetPreload, error) {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return freegap.DatasetPreload{}, fmt.Errorf("-preload %q: want name=path", v)
	}
	return freegap.DatasetPreload{Name: name, Path: path}, nil
}

// parsePreloadSynthetic parses a -preload-synthetic value of the form
// name=kind[:scale[:seed]].
func parsePreloadSynthetic(v string) (freegap.DatasetPreload, error) {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" || spec == "" {
		return freegap.DatasetPreload{}, fmt.Errorf("-preload-synthetic %q: want name=kind[:scale[:seed]]", v)
	}
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return freegap.DatasetPreload{}, fmt.Errorf("-preload-synthetic %q: want name=kind[:scale[:seed]]", v)
	}
	p := freegap.DatasetPreload{Name: name, Synthetic: parts[0]}
	if len(parts) >= 2 {
		scale, err := strconv.Atoi(parts[1])
		if err != nil || scale < 1 {
			return freegap.DatasetPreload{}, fmt.Errorf("-preload-synthetic %q: bad scale %q", v, parts[1])
		}
		p.Scale = scale
	}
	if len(parts) == 3 {
		seed, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return freegap.DatasetPreload{}, fmt.Errorf("-preload-synthetic %q: bad seed %q", v, parts[2])
		}
		p.Seed = seed
	}
	return p, nil
}

// run builds the server from args and serves until ctx is cancelled, then
// shuts down gracefully. The actual listen address is announced on out so
// callers binding to ":0" can discover the port.
func run(ctx context.Context, args []string, out *os.File) error {
	opts, err := parseConfig(args)
	if err != nil {
		return err
	}
	cfg := opts.ServerConfig
	if opts.StateDir != "" {
		// The server owns the opened log: Shutdown/Close flush, compact and
		// close it, so a clean exit leaves a snapshot-only state directory.
		lg, err := freegap.OpenPersist(opts.StateDir, freegap.PersistOptions{Fsync: opts.Fsync})
		if err != nil {
			return err
		}
		st := lg.State()
		fmt.Fprintf(out, "dpserver state restored from %s: %d tenants, %d datasets (fsync %s)\n",
			opts.StateDir, len(st.Tenants), len(st.Datasets), opts.Fsync)
		cfg.Persist = lg
	}
	// NewServer owns cfg.Persist from here on: it closes the log itself on
	// a construction error, and Shutdown/Close flush and close it.
	srv, err := freegap.NewServer(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(out, "dpserver listening on %s (per-tenant budget ε=%g, %d workers)\n",
		ln.Addr(), srv.Config().TenantBudget, srv.Config().Workers)
	for _, info := range srv.Datasets().List() {
		fmt.Fprintf(out, "dpserver serving dataset %s (%s): %d records, %d items\n",
			info.Name, info.Source, info.Records, info.Items)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		srv.Close()
		return err
	case <-ctx.Done():
		fmt.Fprintln(out, "dpserver: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
