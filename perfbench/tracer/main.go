// Command tracer is the benchmark's traced run. It replays a workload's op
// stream in process through the calls the server makes, in the server's
// order, built from the layers' public constructors, and records one span
// per call. It prints per-layer metrics, the counts the driver compares
// with the binary's /metrics, and writes every span as JSON lines.
//
//	tracer --workload W --seed N --seconds S --data DIR --ops N --spans FILE
//
// DIR holds the inputs the driver generated for the same run. This is the
// only part of the benchmark that imports the server's internal packages.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"github.com/freegap/freegap/perfbench/workload"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "the run's seconds (sizes the op stream)")
		dataDir = flag.String("data", "", "directory with the run's generated inputs")
		ops     = flag.Int("ops", 0, "number of ops the end-to-end run executed")
		spans   = flag.String("spans", "", "file to write the spans to")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *dataDir, *ops, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
}

// output is the tracer's last output line.
type output struct {
	Metrics map[string]float64 `json:"metrics"`
	Counts  map[string]float64 `json:"counts"`
	// Verdicts is the subscribed monitor's verdict stream.
	Verdicts []verdictJSON `json:"verdicts"`
}

type verdictJSON struct {
	Seq     int     `json:"seq"`
	Records int     `json:"records"`
	Above   bool    `json:"above"`
	Gap     float64 `json:"gap"`
	Branch  string  `json:"branch"`
	Retired bool    `json:"retired"`
}

func run(name string, seed uint64, seconds int, dataDir string, nops int, spansPath string) error {
	if dataDir == "" || spansPath == "" {
		return errors.New("--data and --spans are required")
	}
	data, fimi, err := workload.ReadInputs(name, dataDir)
	if err != nil {
		return err
	}
	plan, err := workload.Build(name, seed, seconds, data)
	if err != nil {
		return err
	}
	if nops < plan.Warmup || nops > len(plan.Ops) {
		return fmt.Errorf("--ops %d outside [%d, %d]", nops, plan.Warmup, len(plan.Ops))
	}
	state, err := os.MkdirTemp(dataDir, "tracer-state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(state)

	r, err := newReplay(plan, fimi, state)
	if err != nil {
		return err
	}
	defer r.close()
	runtime.GC() // collect the set-up's garbage before the first op's spans open
	for i := 0; i < nops; i++ {
		if err := r.op(i, &plan.Ops[i]); err != nil {
			return fmt.Errorf("op %d (%s %s): %w", i, plan.Ops[i].Method, plan.Ops[i].Path, err)
		}
	}
	out, err := r.report(plan.Warmup, nops)
	if err != nil {
		return err
	}
	if err := r.t.write(spansPath); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
