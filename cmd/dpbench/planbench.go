package main

// The planbench experiment: the query-compiler serving path runnable from
// the command line. It drives composite filter specs through the real HTTP
// handler in-process against a clustered multi-block dataset, one scenario
// per row: compiled-and-scanned with zone-sketch skipping ("skip"), the
// same query with skipping disabled ("noskip" — the denominator of the
// skipping speedup), the compiled-plan cache hit path ("cached"), and the
// adversarial uniform dataset where sketches cannot skip a single block
// ("adversarial").

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/server"
)

// planBenchConfig parameterizes one planbench run.
type planBenchConfig struct {
	// Requests is the request count per scenario.
	Requests int
	// Blocks is the number of zone blocks in the clustered dataset.
	Blocks int
	// Seed seeds the server's noise sources.
	Seed uint64
	// CSV selects comma-separated output instead of the aligned table.
	CSV bool
}

func (c planBenchConfig) withDefaults() planBenchConfig {
	if c.Requests <= 0 {
		c.Requests = 2000
	}
	if c.Blocks <= 0 {
		c.Blocks = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// planBenchResult is one scenario's outcome.
type planBenchResult struct {
	Scenario      string
	Requests      int
	Elapsed       time.Duration
	OpsPerSec     float64
	P50, P95, P99 time.Duration
	// RecSkippedPerOp is the mean number of records the zone sketches let
	// each request skip.
	RecSkippedPerOp float64
}

// runPlanBench runs every scenario and writes the report to stdout.
func runPlanBench(cfg planBenchConfig) error {
	cfg = cfg.withDefaults()
	const benchBudget = 1e18

	clustered := make([][]int32, 0, cfg.Blocks*dataset.BlockRecords)
	for blk := 0; blk < cfg.Blocks; blk++ {
		base := int32(blk * 8)
		for i := 0; i < dataset.BlockRecords; i++ {
			clustered = append(clustered, []int32{base, base + int32(i%8)})
		}
	}
	uniform := make([][]int32, cfg.Blocks*dataset.BlockRecords)
	for i := range uniform {
		uniform[i] = []int32{0, int32(1 + i%200)}
	}
	selective := []byte(fmt.Sprintf(
		`{"tenant":"bench","epsilon":0.01,"k":5,"dataset":"blocks","queries":{"kind":"filter","where":{"contains":[%d]}}}`,
		(cfg.Blocks-1)*8+4))
	unselective := []byte(
		`{"tenant":"bench","epsilon":0.01,"k":5,"dataset":"blocks","queries":{"kind":"filter","where":{"contains":[0]}}}`)

	scenario := func(name string, recs [][]int32, body []byte, noskip, resetCache bool) (planBenchResult, error) {
		s, err := server.New(server.Config{
			TenantBudget: benchBudget, Seed: cfg.Seed, Workers: 1,
			DisableQuerySkipping: noskip,
		})
		if err != nil {
			return planBenchResult{}, err
		}
		defer s.Close()
		if _, err := s.RegisterDataset("blocks", "planbench", dataset.New("blocks", recs)); err != nil {
			return planBenchResult{}, err
		}
		entry, err := s.Datasets().Get("blocks")
		if err != nil {
			return planBenchResult{}, err
		}
		h := s.Handler()
		var lat latHist
		start := time.Now()
		for i := 0; i < cfg.Requests; i++ {
			if resetCache {
				entry.Plans().Reset()
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/topk", bytes.NewReader(body))
			w := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(w, req)
			lat.observe(time.Since(t0))
			if w.Code != http.StatusOK {
				return planBenchResult{}, fmt.Errorf("planbench %s: status %d: %s", name, w.Code, w.Body.String())
			}
		}
		elapsed := time.Since(start)
		return planBenchResult{
			Scenario:        name,
			Requests:        cfg.Requests,
			Elapsed:         elapsed,
			OpsPerSec:       float64(cfg.Requests) / elapsed.Seconds(),
			P50:             lat.quantile(0.50),
			P95:             lat.quantile(0.95),
			P99:             lat.quantile(0.99),
			RecSkippedPerOp: float64(entry.RecordsSkipped()) / float64(cfg.Requests),
		}, nil
	}

	results := make([]planBenchResult, 0, 4)
	for _, sc := range []struct {
		name       string
		recs       [][]int32
		body       []byte
		noskip     bool
		resetCache bool
	}{
		{"skip", clustered, selective, false, true},
		{"noskip", clustered, selective, true, true},
		{"cached", clustered, selective, false, false},
		{"adversarial", uniform, unselective, false, true},
	} {
		res, err := scenario(sc.name, sc.recs, sc.body, sc.noskip, sc.resetCache)
		if err != nil {
			return err
		}
		results = append(results, res)
	}

	if cfg.CSV {
		fmt.Fprintf(os.Stdout, "scenario,blocks,requests,elapsed_ms,ops_per_sec,p50_us,p95_us,p99_us,recskipped_per_op\n")
		for _, r := range results {
			fmt.Fprintf(os.Stdout, "%s,%d,%d,%.3f,%.1f,%.1f,%.1f,%.1f,%.1f\n",
				r.Scenario, cfg.Blocks, r.Requests,
				float64(r.Elapsed.Microseconds())/1000, r.OpsPerSec,
				float64(r.P50.Nanoseconds())/1e3, float64(r.P95.Nanoseconds())/1e3,
				float64(r.P99.Nanoseconds())/1e3, r.RecSkippedPerOp)
		}
		return nil
	}
	fmt.Fprintf(os.Stdout, "planbench: filtered-query hot path (GOMAXPROCS=%d, %d zone blocks, %d records)\n",
		runtime.GOMAXPROCS(0), cfg.Blocks, cfg.Blocks*dataset.BlockRecords)
	fmt.Fprintf(os.Stdout, "%-12s %10s %12s %12s %10s %10s %10s %14s\n",
		"scenario", "requests", "elapsed", "ops/sec", "p50", "p95", "p99", "recskipped/op")
	for _, r := range results {
		fmt.Fprintf(os.Stdout, "%-12s %10d %12s %12.1f %10s %10s %10s %14.1f\n",
			r.Scenario, r.Requests, r.Elapsed.Round(time.Millisecond), r.OpsPerSec,
			r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond),
			r.RecSkippedPerOp)
	}
	return nil
}
