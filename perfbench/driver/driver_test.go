package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/freegap/freegap/perfbench/workload"
)

// stream is a scripted SSE stream: the registration verdict, then one
// verdict per append, the last of which retires the monitor.
const stream = "event: verdict\ndata: {\"monitor\":\"m1\",\"seq\":0,\"records\":100,\"above\":false,\"branch\":\"below\",\"budget_used\":0}\n\n" +
	"event: verdict\ndata: {\"monitor\":\"m1\",\"seq\":1,\"records\":132,\"above\":false,\"branch\":\"below\",\"budget_used\":0}\n\n" +
	"event: verdict\ndata: {\"monitor\":\"m1\",\"seq\":2,\"records\":164,\"above\":true,\"gap\":3.5,\"branch\":\"middle\",\"budget_used\":0.5,\"retired\":true}\n\n"

func TestReadSSE(t *testing.T) {
	var vs []verdict
	if err := readSSE(strings.NewReader(stream), func(v verdict) { vs = append(vs, v) }); err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[2].Gap != 3.5 || !vs[2].Retired || vs[1].Records != 132 || vs[0].at.IsZero() {
		t.Fatalf("parsed %+v", vs)
	}
	if err := readSSE(strings.NewReader("event: other\ndata: {}\n\n"), func(verdict) {}); err == nil {
		t.Error("an unexpected event type was accepted")
	}
}

func TestMatchVerdicts(t *testing.T) {
	var vs []verdict
	if err := readSSE(strings.NewReader(stream), func(v verdict) { vs = append(vs, v) }); err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1000, 0)
	vs[1].at = t0.Add(3 * time.Millisecond)
	vs[2].at = t0.Add(12 * time.Millisecond)
	sends := []appendSend{
		{sent: t0, records: 132, timed: false},
		{sent: t0.Add(10 * time.Millisecond), records: 164, timed: true},
		{sent: t0.Add(20 * time.Millisecond), records: 196, timed: true}, // after retirement: no verdict
	}
	lags, err := matchVerdicts(vs, sends)
	if err != nil {
		t.Fatal(err)
	}
	if len(lags) != 1 || lags[0] != 2 {
		t.Errorf("lags %v, want [2] (only the measured append, matched by records)", lags)
	}

	live := append([]verdict(nil), vs...)
	live[2].Retired = false
	if _, err := matchVerdicts(live, sends); err == nil {
		t.Error("a live monitor missing the last append's verdict was accepted")
	}
	wrong := append([]appendSend(nil), sends...)
	wrong[1].records = 165
	if _, err := matchVerdicts(vs, wrong); err == nil {
		t.Error("a verdict whose records match no acknowledgement was accepted")
	}
	gap := []verdict{vs[0], vs[2]}
	if _, err := matchVerdicts(gap, sends); err == nil {
		t.Error("a stream with a sequence gap was accepted")
	}
}

func TestParseMetrics(t *testing.T) {
	before, err := parseMetrics(strings.NewReader("# HELP x y\nfreegap_stage_seconds_sum{stage=\"decode\"} 1.5\nfreegap_appends_total 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader("freegap_stage_seconds_sum{stage=\"decode\"} 2\nfreegap_stage_seconds_sum{stage=\"encode\"} 1\nfreegap_appends_total 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d := metricDelta(before, after, "freegap_stage_seconds_sum", `stage="decode"`); d != 0.5 {
		t.Errorf("decode delta %g", d)
	}
	if d := metricDelta(before, after, "freegap_stage_seconds_sum", ""); d != 1.5 {
		t.Errorf("all-stage delta %g", d)
	}
	if d := metricDelta(before, after, "freegap_appends_total", ""); d != 7 {
		t.Errorf("appends delta %g", d)
	}
}

// buildBinaries builds dpserver and datagen from the repository and the
// tracer from this module.
func buildBinaries(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for _, b := range []struct{ dir, pkg, out string }{
		{"../..", "./cmd/dpserver", "dpserver"},
		{"../..", "./cmd/datagen", "datagen"},
		{"..", "./tracer", "tracer"},
	} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, b.out), b.pkg)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b.pkg, err, out)
		}
	}
	return bin
}

// TestSmoke runs every workload for one second against the real binary with
// the traced replay, and one end-to-end run, and requires zero failures and
// every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	bin := buildBinaries(t)
	runs := []options{{workload: workload.IngestMonitor, seed: 3, seconds: 1}}
	for _, name := range workload.Names {
		runs = append(runs, options{workload: name, seed: 3, seconds: 1, trace: true})
	}
	for _, o := range runs {
		o.bin, o.work = bin, t.TempDir()
		res, _, err := run(o)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v %d of %d failed", o.workload, o.trace, res.Correct, res.Failed, res.Attempted)
		}
		want := len(endToEnd)
		if o.trace {
			want = len(perLayer)
			if res.Metrics["check.count_mismatches"].Value != 0 {
				t.Errorf("%s: the binary's counts disagree with the replay's", o.workload)
			}
			if _, err := os.Stat(filepath.Join(o.work, "spans-"+o.workload+".jsonl")); err != nil {
				t.Errorf("%s: no spans written: %v", o.workload, err)
			}
		} else {
			for _, m := range endToEnd {
				if v := res.Metrics[m.name].Value; !(v > 0) {
					t.Errorf("%s: %s = %g", o.workload, m.name, v)
				}
			}
		}
		if len(res.Metrics) != want {
			t.Errorf("%s trace=%v: %d metrics, want %d", o.workload, o.trace, len(res.Metrics), want)
		}
	}
}

// TestBenchmarkJSONMatchesDriver keeps BENCHMARK.json's workloads and
// metric lists in step with what the driver reports.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workload.Names) {
		t.Errorf("workloads %v, driver has %v", names, workload.Names)
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d/%d metrics listed, driver reports %d/%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if doc.EndToEnd[i].Name != m.name || doc.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, driver reports %s %s", i, doc.EndToEnd[i], m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if doc.PerLayer[i].Name != m.name || doc.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, driver reports %s %s", i, doc.PerLayer[i], m.name, m.unit)
		}
	}
}
