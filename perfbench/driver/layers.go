package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"github.com/freegap/freegap/perfbench/workload"
)

// stages are the server's pipeline stages, as /metrics labels them.
var stages = []string{"decode", "resolve", "validate", "charge", "execute", "encode"}

// perLayer are the per-layer metrics a --trace 1 run reports. Most come
// from the traced replay; server.* residuals combine it with the
// end-to-end run; server.stage_us.*, persist.fsync_ms and bin.* are the
// binary's /metrics deltas over the warm-up and measured phase, scraped
// outside the timed window.
var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{
		{"server.residual_us.query", "us"}, {"server.residual_us.append", "us"},
	}
	for _, s := range stages {
		l = append(l, struct{ name, unit string }{"server.stage_us." + s, "us"})
	}
	l = append(l, []struct{ name, unit string }{
		{"engine.decode_us", "us"}, {"engine.validate_us", "us"}, {"engine.encode_us", "us"},
	}...)
	for _, c := range workload.QueryClasses {
		l = append(l, struct{ name, unit string }{"engine.execute_us." + c, "us"})
	}
	l = append(l, []struct{ name, unit string }{
		{"engine.alloc_bytes_per_op", "B"},
		{"rng.laplace_ns_per_value", "ns"}, {"core.svt_arrive_us", "us"},
		{"plan.canonical_us", "us"}, {"plan.resolve_miss_us", "us"}, {"plan.resolve_hit_us", "us"},
		{"plan.cache_hit_ratio", "ratio"}, {"plan.records_scanned_per_query", "count"},
		{"plan.skipped_share", "ratio"}, {"plan.parallel_workers", "count"},
		{"store.register_ms", "ms"}, {"store.resolve_leaf_us", "us"}, {"store.prepare_append_us", "us"},
		{"store.install_append_us", "us"}, {"store.append_alloc_bytes", "B"},
		{"dataset.parse_ms_per_mb", "ms/MB"}, {"dataset.delta_parse_us", "us"},
		{"accountant.spend_us", "us"}, {"accountant.spend_batch_us", "us"},
		{"persist.append_us", "us"}, {"persist.blob_ms", "ms"}, {"persist.fsync_ms", "ms"},
		{"persist.wal_bytes_per_op", "B"},
		{"bin.plan_cache_hits", "count"}, {"bin.plan_cache_misses", "count"}, {"bin.records_skipped", "count"},
		{"bin.scan_workers_mean", "count"}, {"bin.fsyncs", "count"}, {"bin.fsync_s", "s"},
		{"bin.appends", "count"}, {"bin.monitor_verdicts", "count"},
		{"check.count_mismatches", "count"},
	}...)
	return l
}()

// traceResult is the tracer's output line.
type traceResult struct {
	Metrics  map[string]float64 `json:"metrics"`
	Counts   map[string]float64 `json:"counts"`
	Verdicts []struct {
		Seq     int     `json:"seq"`
		Records int     `json:"records"`
		Above   bool    `json:"above"`
		Gap     float64 `json:"gap"`
		Branch  string  `json:"branch"`
		Retired bool    `json:"retired"`
	} `json:"verdicts"`
	SpansPath string `json:"-"`
}

// runTracer replays the ops the end-to-end run executed, in process.
func runTracer(o options, dir string, e *e2eRun) (*traceResult, error) {
	spans := filepath.Join(o.work, "spans-"+o.workload+".jsonl")
	cmd := exec.Command(filepath.Join(o.bin, "tracer"), "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-data", dir, "-ops", strconv.Itoa(e.executed), "-spans", spans)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("tracer: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var tr traceResult
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		return nil, fmt.Errorf("tracer output: %w", err)
	}
	tr.SpansPath = spans
	return &tr, nil
}

// binCounts are the binary's /metrics deltas that count the same events as
// the replay.
func binCounts(e *e2eRun) map[string]float64 {
	d := func(name string) float64 { return metricDelta(e.before, e.after, name, "") }
	return map[string]float64{
		"plan_cache_hits":    d("freegap_plan_cache_hits_total"),
		"plan_cache_misses":  d("freegap_plan_cache_misses_total"),
		"records_skipped":    d("freegap_records_skipped_total"),
		"scan_workers_sum":   d("freegap_scan_workers_sum"),
		"scan_workers_count": d("freegap_scan_workers_count"),
		"appends":            d("freegap_appends_total"),
		"monitor_verdicts":   d("freegap_monitor_verdicts_total"),
	}
}

// compareCounts flags every count on which the binary and the replay of
// the same ops disagree, including the subscribed monitor's verdicts.
func compareCounts(e *e2eRun, tr *traceResult) []string {
	var out []string
	bin := binCounts(e)
	for _, k := range sortedKeys(bin) {
		if bin[k] != tr.Counts[k] {
			out = append(out, fmt.Sprintf("%s: binary %g, replay %g", k, bin[k], tr.Counts[k]))
		}
	}
	for _, name := range sortedKeys(e.countScans) {
		if got, want := float64(e.countScans[name]), tr.Counts["count_scans."+name]; got != want {
			out = append(out, fmt.Sprintf("count_scans of %s: binary %g, replay %g", name, got, want))
		}
	}
	if len(e.verdicts) != len(tr.Verdicts) {
		out = append(out, fmt.Sprintf("subscribed monitor: %d verdicts streamed, %d replayed", len(e.verdicts), len(tr.Verdicts)))
		return out
	}
	for i, v := range e.verdicts {
		w := tr.Verdicts[i]
		if v.Seq != w.Seq || v.Records != w.Records || v.Above != w.Above || v.Gap != w.Gap || v.Branch != w.Branch || v.Retired != w.Retired {
			out = append(out, fmt.Sprintf("subscribed monitor verdict %d: streamed %+v, replayed %+v", i, v, w))
			break
		}
	}
	return out
}

// perLayerValues assembles every per-layer metric.
func perLayerValues(e *e2eRun, tr *traceResult, mismatches int) map[string]float64 {
	v := map[string]float64{}
	for k, x := range tr.Metrics {
		v[k] = x
	}
	v["server.residual_us.query"] = workload.Median(e.queryMS)*1e3 - tr.Metrics["trace.query_p50_us"]
	v["server.residual_us.append"] = workload.Median(e.appendMS)*1e3 - tr.Metrics["trace.append_p50_us"]
	ratio := func(name, match string, scale float64) float64 {
		n := metricDelta(e.before, e.after, name+"_count", match)
		if n == 0 {
			return 0
		}
		return metricDelta(e.before, e.after, name+"_sum", match) / n * scale
	}
	for _, s := range stages {
		v["server.stage_us."+s] = ratio("freegap_stage_seconds", `stage="`+s+`"`, 1e6)
	}
	v["persist.fsync_ms"] = ratio("freegap_fsync_seconds", "", 1e3)
	bin := binCounts(e)
	v["bin.plan_cache_hits"] = bin["plan_cache_hits"]
	v["bin.plan_cache_misses"] = bin["plan_cache_misses"]
	v["bin.records_skipped"] = bin["records_skipped"]
	v["bin.scan_workers_mean"] = ratio("freegap_scan_workers", "", 1)
	v["bin.fsyncs"] = metricDelta(e.before, e.after, "freegap_fsync_seconds_count", "")
	v["bin.fsync_s"] = metricDelta(e.before, e.after, "freegap_fsync_seconds_sum", "")
	v["bin.appends"] = bin["appends"]
	v["bin.monitor_verdicts"] = bin["monitor_verdicts"]
	v["check.count_mismatches"] = float64(mismatches)
	return v
}
