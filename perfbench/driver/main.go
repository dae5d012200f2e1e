// Command driver is the benchmark's end-to-end driver. It spawns the real
// dpserver binary, sets it up over loopback HTTP, drives one workload's
// seeded op stream as a closed loop on one connection, checks every answer
// and prints the end-to-end metrics; with --trace 1 it also runs the traced
// in-process replay (the tracer binary) and prints the per-layer metrics.
// The driver talks to the server only over HTTP and imports nothing of the
// server's module.
//
//	driver --workload mechanisms --seed 1 --seconds 10 --trace 0 --bin DIR --work DIR
//
// DIR holds the dpserver, datagen and tracer binaries (perfbench/run.sh
// builds them from the working tree before any clock starts).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/freegap/freegap/perfbench/workload"
)

const budget = workload.Budget

// setups is how many times an end-to-end run sets the server up; setup_s
// is their median, and the last set-up serves the measured phase.
const setups = 5

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string
	work     string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("driver", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workload.Names, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced replay")
	fs.StringVar(&o.bin, "bin", "", "directory holding the dpserver, datagen and tracer binaries")
	fs.StringVar(&o.work, "work", "", "scratch directory for generated inputs, state and spans")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	case trace != 0 && trace != 1:
		return o, errors.New("--trace must be 0 or 1")
	case o.seconds < 1:
		return o, errors.New("--seconds must be at least 1")
	case o.bin == "" || o.work == "":
		return o, errors.New("--bin and --work are required")
	}
	if _, err := workload.Inputs(o.workload); err != nil {
		return o, err
	}
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "driver:", err)
		os.Exit(2)
	}
	res, info, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "driver:", err)
		os.Exit(1)
	}
	for _, line := range info {
		fmt.Println(line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "driver:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run performs one benchmark run and returns the result and the
// informational lines printed before it.
func run(o options) (*result, []string, error) {
	dir, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	if err := generate(o, dir); err != nil {
		return nil, nil, err
	}
	data, fimi, err := workload.ReadInputs(o.workload, dir)
	if err != nil {
		return nil, nil, err
	}
	plan, err := workload.Build(o.workload, o.seed, o.seconds, data)
	if err != nil {
		return nil, nil, err
	}
	uploads := make([][]byte, len(plan.Datasets))
	records := make([]int, len(plan.Datasets))
	for i, name := range plan.Datasets {
		uploads[i] = workload.UploadBody(name, fimi[name])
		records[i] = len(data[name].Records)
	}
	// The parsed inputs are dropped here and read again once the measured
	// phase is over: their millions of pointers would otherwise make every
	// collection in this process, which shares the cores with the server,
	// expensive while the clock runs.
	data, fimi = nil, nil

	n := setups
	if o.trace {
		n = 1
	}
	e, err := runE2E(o, dir, plan, records, uploads, n)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	info := []string{hostLine(e), samplesLine(e)}
	if !o.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: m.value(e), Unit: m.unit}
		}
	} else {
		tr, err := runTracer(o, dir, e)
		if err != nil {
			return nil, nil, err
		}
		mismatches := compareCounts(e, tr)
		for _, m := range mismatches {
			fmt.Fprintln(os.Stderr, "driver: count mismatch:", m)
		}
		values := perLayerValues(e, tr, len(mismatches))
		for _, m := range perLayer {
			v, ok := values[m.name]
			if !ok {
				return nil, nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
		info = append(info, "# spans: "+tr.SpansPath)
	}
	for i, f := range e.failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "driver: ... and %d more failures\n", len(e.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "driver: failed:", f)
	}
	res.Correct = res.Failed == 0
	return res, info, nil
}

// generate runs the repo's own dataset generator for every input of the
// workload under the run's seed, writing <name>.dat files into dir.
func generate(o options, dir string) error {
	inputs, _ := workload.Inputs(o.workload)
	for _, in := range inputs {
		cmd := exec.Command(filepath.Join(o.bin, "datagen"), "-dataset", in.Kind,
			"-scale", strconv.Itoa(in.Scale), "-seed", strconv.FormatUint(o.seed+in.SeedOffset, 10),
			"-out", filepath.Join(dir, in.Name+".dat"))
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("datagen %s: %v: %s", in.Name, err, out)
		}
	}
	return nil
}

// hostLine records where the numbers came from.
func hostLine(e *e2eRun) string {
	commit := "unknown: not a git checkout"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	b, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "server_gomaxprocs": e.serverWorkers, "driver_gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": e.goVersion, "commit": commit,
	})
	return "# host: " + string(b)
}

// samplesLine states each timing's sample count, and the query and append
// p99s, which are reported but not gated. On mechanisms the query p99 falls
// among the ~1% of requests a server GC cycle slows, so it jumps with the
// number of cycles in the window; the append p99 of the query-heavy
// workloads rests on a few hundred side-stream appends.
func samplesLine(e *e2eRun) string {
	b, _ := json.Marshal(map[string]any{
		"setups": len(e.setupS), "measured_ops": e.measuredOps, "query": len(e.queryMS),
		"append": len(e.appendMS), "verdict_lag": len(e.lagMS),
		"query_p99_ms":  workload.Percentile(e.queryMS, 99),
		"append_p99_ms": workload.Percentile(e.appendMS, 99),
	})
	return "# samples: " + string(b)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
