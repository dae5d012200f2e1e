package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/freegap/freegap/perfbench/workload"
)

// e2eRun is what one end-to-end run measured.
type e2eRun struct {
	setupS            []float64
	executed          int // ops sent, warm-up included
	measuredOps       int
	measuredS         float64
	queryMS, appendMS []float64
	lagMS             []float64
	cpuS, rssMB       float64
	before, after     map[string]float64 // /metrics around warm-up + measured phase
	countScans        map[string]uint64  // per dataset, at the end
	verdicts          []verdict          // the subscribed monitor's stream
	attempted, failed int
	failures          []string
	serverWorkers     int
	goVersion         string
}

// endToEnd are the end-to-end metrics, measured with tracing off.
var endToEnd = []struct {
	name, unit string
	value      func(e *e2eRun) float64
}{
	{"setup_s", "s", func(e *e2eRun) float64 { return workload.Median(e.setupS) }},
	{"ops_per_s", "ops/s", func(e *e2eRun) float64 { return float64(e.measuredOps) / e.measuredS }},
	{"query_p50_ms", "ms", func(e *e2eRun) float64 { return workload.Percentile(e.queryMS, 50) }},
	{"query_p95_ms", "ms", func(e *e2eRun) float64 { return workload.Percentile(e.queryMS, 95) }},
	{"append_p50_ms", "ms", func(e *e2eRun) float64 { return workload.Percentile(e.appendMS, 50) }},
	{"verdict_lag_p50_ms", "ms", func(e *e2eRun) float64 { return workload.Percentile(e.lagMS, 50) }},
	{"server_cpu_ms_per_op", "ms", func(e *e2eRun) float64 { return e.cpuS * 1000 / float64(e.measuredOps) }},
	{"server_rss_peak_mb", "MB", func(e *e2eRun) float64 { return e.rssMB }},
}

// attempt counts one attempted op or check, and a failure when err is set.
func (e *e2eRun) attempt(err error) {
	e.attempted++
	if err != nil {
		e.failed++
		e.failures = append(e.failures, err.Error())
	}
}

// outcome is one op's response.
type outcome struct {
	status int
	body   []byte
	sent   time.Time
	dur    time.Duration
}

func do(c *http.Client, base, method, path string, body []byte) outcome {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return outcome{status: -1, body: []byte(err.Error())}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return outcome{status: -1, body: []byte(err.Error()), sent: start}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return outcome{status: -1, body: []byte(err.Error()), sent: start}
	}
	return outcome{status: resp.StatusCode, body: b, sent: start, dur: dur}
}

func getJSON(c *http.Client, base, path string, v any) error {
	out := do(c, base, "GET", path, nil)
	if out.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", path, out.status, out.body)
	}
	return json.Unmarshal(out.body, v)
}

// newClient returns a client whose requests share one keep-alive
// connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
}

// setUp spawns a fresh server and makes one set-up: uploads, monitors and
// the SSE subscription. It returns the set-up time, from spawn to the last
// set-up response.
func setUp(o options, dir string, i int, plan *workload.Plan, records []int,
	uploads [][]byte, c, sseClient *http.Client, e *e2eRun) (*server, *subscriber, error) {
	start := time.Now()
	srv, err := startServer(filepath.Join(o.bin, "dpserver"), filepath.Join(dir, fmt.Sprintf("state%d", i)),
		filepath.Join(dir, fmt.Sprintf("server%d.log", i)))
	if err != nil {
		return nil, nil, err
	}
	for j, name := range plan.Datasets {
		out := do(c, srv.base, "POST", "/v1/datasets", uploads[j])
		var info struct {
			Records int `json:"records"`
		}
		err := json.Unmarshal(out.body, &info)
		if out.status != http.StatusCreated || err != nil || info.Records != records[j] {
			srv.stop()
			return nil, nil, fmt.Errorf("uploading %s: status %d: %.200s", name, out.status, out.body)
		}
		e.attempt(nil)
	}
	var sub *subscriber
	for j := range plan.Monitors {
		m := &plan.Monitors[j]
		out := do(c, srv.base, "POST", "/v1/monitors", m.Body())
		var info struct {
			ID string `json:"id"`
		}
		err := json.Unmarshal(out.body, &info)
		if out.status != http.StatusCreated || err != nil || info.ID != workload.MonitorID(j) {
			srv.stop()
			return nil, nil, fmt.Errorf("creating monitor %d: status %d: %.200s", j, out.status, out.body)
		}
		e.attempt(nil)
		if m.Subscribe {
			if sub, err = subscribe(sseClient, srv.base, info.ID); err != nil {
				srv.stop()
				return nil, nil, err
			}
		}
	}
	e.setupS = append(e.setupS, time.Since(start).Seconds())
	return srv, sub, nil
}

// runE2E sets the server up n times and drives the stream against the last
// set-up, then checks every answer and reconciles the server's state.
func runE2E(o options, dir string, plan *workload.Plan, records []int, uploads [][]byte, n int) (*e2eRun, error) {
	e := &e2eRun{}
	c, sseClient := newClient(), &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer c.CloseIdleConnections()
	defer sseClient.CloseIdleConnections()
	var (
		srv *server
		sub *subscriber
		err error
	)
	for i := 0; i < n; i++ {
		if srv != nil {
			if sub != nil {
				sub.close()
			}
			srv.stop()
			c.CloseIdleConnections()
			_ = os.RemoveAll(filepath.Join(dir, fmt.Sprintf("state%d", i-1)))
		}
		if srv, sub, err = setUp(o, dir, i, plan, records, uploads, c, sseClient, e); err != nil {
			return nil, err
		}
	}
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			if sub != nil {
				sub.close()
			}
			srv.stop()
		}
	}
	defer stop()

	var health struct {
		Workers int `json:"workers"`
	}
	if err := getJSON(c, srv.base, "/healthz", &health); err != nil {
		return nil, err
	}
	e.serverWorkers = health.Workers
	if e.before, err = scrape(c, srv.base); err != nil {
		return nil, err
	}
	for k := range e.before {
		if v, ok := strings.CutPrefix(k, `freegap_build_info{go_version="`); ok {
			e.goVersion, _, _ = strings.Cut(v, `"`)
		}
	}

	// The untimed warm-up, then the measured phase: a closed loop on one
	// connection, each op sent when the previous one has been read.
	outs := make([]outcome, 0, len(plan.Ops))
	for i := 0; i < plan.Warmup; i++ {
		op := &plan.Ops[i]
		outs = append(outs, do(c, srv.base, op.Method, op.Path, op.Body))
	}
	runtime.GC() // start the timed window with this process's heap settled
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	deadline := time.Duration(o.seconds) * time.Second
	t0 := time.Now()
	for i := plan.Warmup; i < len(plan.Ops) && (plan.Fixed || time.Since(t0) < deadline); i++ {
		op := &plan.Ops[i]
		outs = append(outs, do(c, srv.base, op.Method, op.Path, op.Body))
	}
	e.measuredS = time.Since(t0).Seconds()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	e.cpuS = cpu1 - cpu0
	e.executed = len(outs)
	e.measuredOps = e.executed - plan.Warmup
	if !plan.Fixed && e.executed == len(plan.Ops) {
		return nil, fmt.Errorf("the stream of %d ops ran out before the measured phase ended", len(plan.Ops))
	}
	if e.after, err = scrape(c, srv.base); err != nil {
		return nil, err
	}
	if e.rssMB, err = srv.rssPeakMB(); err != nil {
		return nil, err
	}

	// Everything below runs outside the timed window.
	data, _, err := workload.ReadInputs(o.workload, dir)
	if err != nil {
		return nil, err
	}
	chk := newChecker(plan, data)
	var sends []appendSend
	watched := ""
	for _, m := range plan.Monitors {
		if m.Subscribe {
			watched = m.Dataset
		}
	}
	for i, out := range outs {
		op := &plan.Ops[i]
		e.attempt(chk.check(op, out.status, out.body))
		ms := float64(out.dur.Nanoseconds()) / 1e6
		timed := i >= plan.Warmup
		switch {
		case op.Class == workload.ClassAppend:
			if timed {
				e.appendMS = append(e.appendMS, ms)
			}
			if op.Dataset == watched && out.status == http.StatusOK {
				var ack appendResp
				_ = json.Unmarshal(out.body, &ack)
				sends = append(sends, appendSend{sent: out.sent, records: ack.Records, timed: timed})
			}
		case op.Query() && timed:
			e.queryMS = append(e.queryMS, ms)
		}
	}
	e.reconcile(c, srv.base, plan, chk, sub, sends)
	stop()
	return e, nil
}

// reconcile checks the server's end state against everything sent: every
// tenant's ledger, every dataset's size and counters, every monitor's
// verdict count, and the subscribed monitor's stream against the append
// acknowledgements.
func (e *e2eRun) reconcile(c *http.Client, base string, plan *workload.Plan, chk *checker, sub *subscriber, sends []appendSend) {
	for _, t := range sortedKeys(chk.spent) {
		var r budgetResp
		err := getJSON(c, base, "/v1/tenants/"+t+"/budget", &r)
		if err == nil {
			err = chk.reconcileTenant(t, &r)
		}
		e.attempt(err)
	}
	e.countScans = map[string]uint64{}
	for _, name := range plan.Datasets {
		var r struct {
			Records     int    `json:"records"`
			Items       int    `json:"items"`
			Resolutions int    `json:"resolutions"`
			CountScans  uint64 `json:"count_scans"`
		}
		err := getJSON(c, base, "/v1/datasets/"+name, &r)
		d := chk.data[name]
		switch {
		case err != nil:
		case r.Records != len(d.records) || r.Items != d.universe:
			err = fmt.Errorf("dataset %s: %d records/%d items, sent %d/%d", name, r.Records, r.Items, len(d.records), d.universe)
		case r.Resolutions != d.resolved:
			err = fmt.Errorf("dataset %s: %d resolutions, sent %d", name, r.Resolutions, d.resolved)
		case r.CountScans < 1 || (!d.composite && r.CountScans != 1):
			err = fmt.Errorf("dataset %s: count_scans %d (composite queries sent: %v)", name, r.CountScans, d.composite)
		}
		e.countScans[name] = r.CountScans
		e.attempt(err)
	}
	var list struct {
		Monitors []struct {
			ID       string `json:"id"`
			Dataset  string `json:"dataset"`
			Verdicts int    `json:"verdicts"`
			Retired  bool   `json:"retired"`
		} `json:"monitors"`
	}
	err := getJSON(c, base, "/v1/monitors", &list)
	if err == nil && len(list.Monitors) != len(plan.Monitors) {
		err = fmt.Errorf("%d monitors listed, %d created", len(list.Monitors), len(plan.Monitors))
	}
	e.attempt(err)
	if err != nil {
		return
	}
	for i, m := range list.Monitors {
		want := 1 + chk.data[m.Dataset].appends
		if m.Verdicts > want || (!m.Retired && m.Verdicts != want) {
			e.attempt(fmt.Errorf("monitor %s: %d verdicts (retired %v) after %d appends", m.ID, m.Verdicts, m.Retired, want-1))
			continue
		}
		e.attempt(nil)
		if !plan.Monitors[i].Subscribe {
			continue
		}
		e.verdicts = sub.waitFor(m.Verdicts, 10*time.Second)
		if err := sub.streamErr(); err != nil {
			e.attempt(fmt.Errorf("monitor %s stream: %w", m.ID, err))
			continue
		}
		lags, err := matchVerdicts(e.verdicts, sends)
		if err == nil && len(e.verdicts) != m.Verdicts {
			err = fmt.Errorf("monitor %s: stream delivered %d of %d verdicts", m.ID, len(e.verdicts), m.Verdicts)
		}
		e.attempt(err)
		e.lagMS = lags
	}
}
