package server

import (
	"bufio"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/telemetry"
)

// bigTestDataset builds a 65k-record dataset: item i%97 in every record, item
// 1 additionally in every third. Large enough that an accidental rescan on
// append would be a visible regression, structured enough to predict counts.
func bigTestDataset(records int) *dataset.Transactions {
	rows := make([][]int32, records)
	for i := range rows {
		if i%3 == 0 {
			rows[i] = []int32{int32(i % 97), 1}
		} else {
			rows[i] = []int32{int32(i % 97)}
		}
	}
	return dataset.New("big", rows)
}

func fimiRepeat(line string, n int) string {
	return strings.Repeat(line+"\n", n)
}

// readSSEVerdicts reads SSE "data:" payloads from the monitor stream until n
// verdicts arrived or the deadline passed. It reports failures with Errorf
// (never FailNow) so it is safe to call from spawned goroutines; callers that
// index into the result must check its length first.
func readSSEVerdicts(t *testing.T, url string, n int, within time.Duration) []string {
	t.Helper()
	client := &http.Client{Timeout: within + 5*time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stream status = %d", resp.StatusCode)
		return nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("stream content type = %q", ct)
		return nil
	}
	deadline := time.AfterFunc(within, func() { resp.Body.Close() })
	defer deadline.Stop()
	var out []string
	sc := bufio.NewScanner(resp.Body)
	for len(out) < n && sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			out = append(out, data)
		}
	}
	if len(out) < n {
		t.Errorf("stream delivered %d verdicts within %v, want %d: %v", len(out), within, n, out)
	}
	return out
}

func TestDatasetAppendIsIncrementalOver65kRecords(t *testing.T) {
	const base = 65_536
	s, ts := newTestServer(t, Config{TenantBudget: 100})
	if _, err := s.RegisterDataset("big", "test", bigTestDataset(base)); err != nil {
		t.Fatalf("RegisterDataset: %v", err)
	}
	e, err := s.Datasets().Get("big")
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), e.ResolveAll()...)

	resp, data := postJSON(t, ts.URL+"/v1/datasets/big/append",
		DatasetAppendRequest{FIMI: fimiRepeat("7 1", 100)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status = %d, body = %s", resp.StatusCode, data)
	}
	ar := decodeInto[DatasetAppendResponse](t, data)
	if ar.AppendedRecords != 100 || ar.Records != base+100 {
		t.Errorf("append response = %+v, want 100 appended, %d total", ar, base+100)
	}

	if got, want := e.ResolveAll()[7], before[7]+100; got != want {
		t.Errorf("count[7] = %v, want %v", got, want)
	}
	if got, want := e.ResolveAll()[1], before[1]+100; got != want {
		t.Errorf("count[1] = %v, want %v", got, want)
	}
	// The pin: appending never re-materialises the count vector. One scan —
	// the registration precompute — however many deltas arrive.
	if got := e.CountScans(); got != 1 {
		t.Errorf("count_scans after append = %d, want 1 (append rescanned the dataset)", got)
	}
	_, data = getJSON(t, ts.URL+"/v1/datasets/big")
	if !strings.Contains(string(data), `"count_scans":1`) {
		t.Errorf("dataset info does not pin count_scans to 1: %s", data)
	}

	// Append validation: an unknown dataset 404s, an over-limit universe 400s.
	if resp, _ := postJSON(t, ts.URL+"/v1/datasets/nope/append", DatasetAppendRequest{FIMI: "1\n"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("append to unknown dataset: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/datasets/big/append", DatasetAppendRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty append: status %d, want 400", resp.StatusCode)
	}
}

func TestMonitorLifecycleStreamsVerdictsOverSSE(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantBudget: 10})
	db := bigTestDataset(3_000)
	if _, err := s.RegisterDataset("clicks", "test", db); err != nil {
		t.Fatal(err)
	}
	item7 := db.ItemCounts()[7]

	// Register a monitor with the threshold 200 above item 7's count: the
	// registration verdict is below, the appended burst pushes it far over.
	create := MonitorCreateRequest{
		Tenant: "acme", Dataset: "clicks", Item: 7,
		Threshold: item7 + 200, Epsilon: 0.5, MaxAnswers: 1, Seed: 7,
	}
	resp, data := postJSON(t, ts.URL+"/v1/monitors", create)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("monitor create status = %d, body = %s", resp.StatusCode, data)
	}
	mon := decodeInto[MonitorCreateResponse](t, data)
	if mon.ID == "" || mon.Verdict == nil {
		t.Fatalf("create response missing id or registration verdict: %s", data)
	}
	if mon.Verdict.Above || mon.Verdict.Seq != 0 {
		t.Errorf("registration verdict = %+v, want seq-0 below", mon.Verdict)
	}

	// The whole ε was charged once, under the monitors label.
	budget := decodeInto[BudgetResponse](t, second(getJSON(t, ts.URL+"/v1/tenants/acme/budget")))
	if budget.Remaining != 9.5 {
		t.Errorf("remaining after monitor charge = %v, want 9.5", budget.Remaining)
	}

	// Subscribe first, then append: the triggering verdict must arrive over
	// the live stream (one event past the replayed seq-0 history).
	type streamResult struct{ verdicts []string }
	got := make(chan streamResult, 1)
	go func() {
		got <- streamResult{readSSEVerdicts(t, ts.URL+"/v1/monitors/"+mon.ID+"/stream", 2, 10*time.Second)}
	}()
	time.Sleep(50 * time.Millisecond) // let the subscriber attach before the append

	resp, data = postJSON(t, ts.URL+"/v1/datasets/clicks/append",
		DatasetAppendRequest{FIMI: fimiRepeat("7", 400)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status = %d, body = %s", resp.StatusCode, data)
	}
	if ar := decodeInto[DatasetAppendResponse](t, data); ar.MonitorVerdicts != 1 {
		t.Errorf("append triggered %d verdicts, want 1", ar.MonitorVerdicts)
	}

	res := <-got
	if len(res.verdicts) < 2 {
		t.Fatalf("stream delivered %d verdicts, want 2", len(res.verdicts))
	}
	if !strings.Contains(res.verdicts[1], `"above":true`) || !strings.Contains(res.verdicts[1], `"gap":`) {
		t.Errorf("triggering verdict missing above/gap: %s", res.verdicts[1])
	}

	// MaxAnswers = 1: the monitor retired on that answer; further appends
	// release nothing.
	info := decodeInto[MonitorInfo](t, second(getJSON(t, ts.URL+"/v1/monitors/"+mon.ID)))
	if !info.Retired || info.AboveCount != 1 || info.Verdicts != 2 {
		t.Errorf("monitor info after trigger = %+v, want retired with 2 verdicts, 1 above", info)
	}
	_, data = postJSON(t, ts.URL+"/v1/datasets/clicks/append", DatasetAppendRequest{FIMI: "7\n"})
	if ar := decodeInto[DatasetAppendResponse](t, data); ar.MonitorVerdicts != 0 {
		t.Errorf("retired monitor still released a verdict: %+v", ar)
	}

	// List and error paths.
	list := decodeInto[MonitorListResponse](t, second(getJSON(t, ts.URL+"/v1/monitors")))
	if len(list.Monitors) != 1 || list.Monitors[0].ID != mon.ID {
		t.Errorf("monitor list = %+v", list)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/monitors/m999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown monitor: status %d, want 404", resp.StatusCode)
	}
	bad := create
	bad.Epsilon = -1
	if resp, _ := postJSON(t, ts.URL+"/v1/monitors", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative epsilon: status %d, want 400", resp.StatusCode)
	}
	bad = create
	bad.Dataset = "nope"
	if resp, _ := postJSON(t, ts.URL+"/v1/monitors", bad); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d, want 404", resp.StatusCode)
	}
	broke := create
	broke.Tenant, broke.Epsilon = "pauper", 100
	if resp, _ := postJSON(t, ts.URL+"/v1/monitors", broke); resp.StatusCode != http.StatusPaymentRequired {
		t.Errorf("over-budget monitor: status %d, want 402", resp.StatusCode)
	}
}

func second[A, B any](_ A, b B) B { return b }

// TestStreamingCrashRecovery is the kill-9 end-to-end: appends and monitor
// registrations journal into the WAL; after an unclean teardown the restarted
// server must rebuild byte-identical count vectors AND byte-identical monitor
// verdict histories (same seed, same event order, same noise stream).
func TestStreamingCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, ts := newPersistentServer(t, dir, 10)

	upload := DatasetUploadRequest{Name: "clicks", FIMI: fimiRepeat("0 1", 50) + fimiRepeat("2", 10)}
	if resp, data := postJSON(t, ts.URL+"/v1/datasets", upload); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, data)
	}
	create := MonitorCreateRequest{
		Tenant: "acme", Dataset: "clicks", Item: 2,
		Threshold: 30, Epsilon: 0.8, MaxAnswers: 2, Adaptive: true, Seed: 99,
	}
	resp, data := postJSON(t, ts.URL+"/v1/monitors", create)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("monitor create: %d %s", resp.StatusCode, data)
	}
	id := decodeInto[MonitorCreateResponse](t, data).ID

	// Two appends: the first leaves item 2 below, the second pushes it over.
	for _, delta := range []string{fimiRepeat("1", 5), fimiRepeat("2", 60)} {
		if resp, data := postJSON(t, ts.URL+"/v1/datasets/clicks/append", DatasetAppendRequest{FIMI: delta}); resp.StatusCode != http.StatusOK {
			t.Fatalf("append: %d %s", resp.StatusCode, data)
		}
	}

	e, err := s.Datasets().Get("clicks")
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := append([]float64(nil), e.ResolveAll()...)
	wantRecords := e.Info().Records
	wantHistory := readSSEVerdicts(t, ts.URL+"/v1/monitors/"+id+"/stream", 3, 5*time.Second)
	wantBudget := decodeInto[BudgetResponse](t, second(getJSON(t, ts.URL+"/v1/tenants/acme/budget")))

	crash(t, s, ts)

	s2, ts2 := newPersistentServer(t, dir, 10)
	defer s2.Close()
	e2, err := s2.Datasets().Get("clicks")
	if err != nil {
		t.Fatalf("dataset not restored: %v", err)
	}
	if got := e2.Info().Records; got != wantRecords {
		t.Errorf("restored records = %d, want %d", got, wantRecords)
	}
	if got := e2.ResolveAll(); !reflect.DeepEqual(got, wantCounts) {
		t.Errorf("restored counts diverged from the pre-crash vector")
	}
	gotHistory := readSSEVerdicts(t, ts2.URL+"/v1/monitors/"+id+"/stream", 3, 5*time.Second)
	if !reflect.DeepEqual(gotHistory, wantHistory) {
		t.Errorf("verdict history not replayed byte-identically:\n pre-crash %v\n restored  %v", wantHistory, gotHistory)
	}
	// The monitor's ε was not re-charged by the replay.
	gotBudget := decodeInto[BudgetResponse](t, second(getJSON(t, ts2.URL+"/v1/tenants/acme/budget")))
	if gotBudget.Remaining != wantBudget.Remaining {
		t.Errorf("remaining budget after restart = %v, want %v", gotBudget.Remaining, wantBudget.Remaining)
	}

	// And the restarted server keeps serving the stream: a fresh monitor id
	// counter must not collide with the restored one.
	resp, data = postJSON(t, ts2.URL+"/v1/monitors", create)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-restart monitor create: %d %s", resp.StatusCode, data)
	}
	if newID := decodeInto[MonitorCreateResponse](t, data).ID; newID == id {
		t.Errorf("restored and new monitor share id %q", newID)
	}
}

// TestTenantGaugeEviction: the per-tenant gauge cap must not be first-come-
// forever. Once a gauge's tenant is gone from the registry, the scrape
// retires its series and hands the slot to a tenant that arrived after
// saturation.
func TestTenantGaugeEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantBudget: 10})
	// Saturate the gauge map with tenants the registry does not know.
	s.scrapeMu.Lock()
	for i := 0; i < maxTenantGaugeSeries; i++ {
		name := fmt.Sprintf("ghost%d", i)
		s.tenantGauges[name] = s.telemetry.FloatGauge("freegap_tenant_remaining_epsilon", telemetry.L("tenant", name))
	}
	s.scrapeMu.Unlock()

	// A real tenant charging after saturation must still earn a gauge line.
	if resp, data := spendTopK(t, ts, "latecomer", 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("spend: %d %s", resp.StatusCode, data)
	}
	_, metrics := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), `freegap_tenant_remaining_epsilon{tenant="latecomer"}`) {
		t.Error("post-saturation tenant got no gauge series (cap is first-come-forever)")
	}
	if strings.Contains(string(metrics), `tenant="ghost0"`) {
		t.Error("gauge series for an absent tenant survived the scrape")
	}
	s.scrapeMu.Lock()
	n := len(s.tenantGauges)
	s.scrapeMu.Unlock()
	if n != 1 {
		t.Errorf("tenant gauge map holds %d entries after eviction, want 1", n)
	}
}

// TestStreamingStressInterleaved drives appends, dataset-backed queries and
// monitor deliveries concurrently; run under -race it checks the RCU
// generation swap, the plan-cache flush and the verdict fanout against each
// other.
func TestStreamingStressInterleaved(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantBudget: 1e9, Workers: 4})
	if _, err := s.RegisterDataset("hot", "test", bigTestDataset(4_096)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		create := MonitorCreateRequest{
			Tenant: "acme", Dataset: "hot", Item: int32(i),
			Threshold: 1e7, Epsilon: 0.5, MaxAnswers: 4, Seed: uint64(i + 1),
		}
		if resp, data := postJSON(t, ts.URL+"/v1/monitors", create); resp.StatusCode != http.StatusCreated {
			t.Fatalf("monitor %d: %d %s", i, resp.StatusCode, data)
		}
	}

	const iters = 60
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, data := postJSON(t, ts.URL+"/v1/datasets/hot/append",
					DatasetAppendRequest{FIMI: fimiRepeat(fmt.Sprintf("%d", (w*31+i)%97), 3)})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("append: %d %s", resp.StatusCode, data)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body := TopKRequest{Common: Common{Tenant: "acme", Epsilon: 0.01, Monotonic: true,
					Dataset: "hot", Queries: &QuerySpec{Kind: "all_items"}}, K: 3}
				resp, data := postJSON(t, ts.URL+"/v1/topk", body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query: %d %s", resp.StatusCode, data)
					return
				}
			}
		}(w)
	}
	for m := 1; m <= 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			// Each reader holds a live SSE subscription while appends fan out.
			readSSEVerdicts(t, fmt.Sprintf("%s/v1/monitors/m%d/stream", ts.URL, m), 3, 20*time.Second)
		}(m)
	}
	wg.Wait()

	e, err := s.Datasets().Get("hot")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Info().Records, 4_096+2*iters*3; got != want {
		t.Errorf("records after stress = %d, want %d", got, want)
	}
	if got := e.CountScans(); got != 1 {
		t.Errorf("count_scans after stress = %d, want 1", got)
	}
}
