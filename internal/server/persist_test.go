package server

// Crash-recovery end-to-end harness for the durable service state: spend
// budget and register datasets over the real HTTP surface, tear the server
// down — cleanly, crash-style, and with a torn WAL tail — restart it on the
// same state directory, and assert the restarted server resumes with the
// exact spent-budget state (per-mechanism breakdown included) and dataset
// catalog, with no way for a tenant to double-spend across the restart.
// Every test uses its own t.TempDir() state directory, so persisted-state
// tests can never collide with each other or with the in-memory suites.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/freegap/freegap/internal/persist"
	"github.com/freegap/freegap/internal/store"
)

// persistTestOptions keeps flushes immediate-ish and compaction manual so
// restart tests are deterministic.
func persistTestOptions() persist.Options {
	return persist.Options{Fsync: persist.FsyncOff, FlushInterval: time.Millisecond, CompactEvery: -1}
}

func openLog(t *testing.T, dir string) *persist.Log {
	t.Helper()
	lg, err := persist.Open(dir, persistTestOptions())
	if err != nil {
		t.Fatalf("persist.Open(%s): %v", dir, err)
	}
	return lg
}

// newPersistentServer boots a server journalling into dir. The caller tears
// it down explicitly (cleanly via Close, or crash-style via Persist Abort
// followed by Close).
func newPersistentServer(t *testing.T, dir string, budget float64) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{TenantBudget: budget, Seed: 42, Workers: 1, Persist: openLog(t, dir)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// crash simulates a kill: the WAL is flushed (as it would be within one
// flush interval of the last request) but never compacted, and the server is
// torn down without the clean-shutdown path.
func crash(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	if err := s.Config().Persist.Flush(); err != nil {
		t.Fatalf("flush before crash: %v", err)
	}
	if err := s.Config().Persist.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	ts.Close()
	s.Close() // persist already aborted: this only stops the pool
}

func budgetOf(t *testing.T, ts *httptest.Server, tenant string) (BudgetResponse, []byte) {
	t.Helper()
	resp, data := getJSON(t, ts.URL+"/v1/tenants/"+tenant+"/budget")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget status = %d, body = %s", resp.StatusCode, data)
	}
	return decodeInto[BudgetResponse](t, data), data
}

func spendTopK(t *testing.T, ts *httptest.Server, tenant string, eps float64) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, ts.URL+"/v1/topk", TopKRequest{
		Common: Common{Tenant: tenant, Epsilon: eps, Answers: testAnswers, Monotonic: true}, K: 3})
}

// TestRestartRestoresBudgetsAndDatasets is the main crash-recovery pass:
// clean shutdown, restart, exact state.
func TestRestartRestoresBudgetsAndDatasets(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistentServer(t, dir, 10)

	// Spend across mechanisms and tenants: single charges, an SVT
	// reservation and an atomic batch, so the restored per-mechanism
	// breakdown is non-trivial.
	if resp, data := spendTopK(t, ts1, "acme", 1.5); resp.StatusCode != http.StatusOK {
		t.Fatalf("topk status = %d, body = %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts1.URL+"/v1/svt", SVTRequest{
		Common: Common{Tenant: "acme", Epsilon: 2, Answers: testAnswers, Monotonic: true},
		K:      2, Threshold: 500, Adaptive: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("svt status = %d, body = %s", resp.StatusCode, data)
	}
	item, _ := json.Marshal(TopKRequest{Common: Common{Epsilon: 0.25, Answers: testAnswers}, K: 2})
	if resp, data := postJSON(t, ts1.URL+"/v1/batch", BatchRequest{
		Tenant:   "globex",
		Requests: []BatchItem{{Mechanism: "topk", Request: item}, {Mechanism: "topk", Request: item}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body = %s", resp.StatusCode, data)
	}

	// Register one uploaded and one synthetic dataset.
	if resp, data := postJSON(t, ts1.URL+"/v1/datasets", DatasetUploadRequest{
		Name: "sales", FIMI: "0 1 2\n1 2\n2\n"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d, body = %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts1.URL+"/v1/datasets", DatasetUploadRequest{
		Name: "demo", Synthetic: &SyntheticSpec{Kind: "kosarak", Scale: 2000, Seed: 7}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("synthetic upload status = %d, body = %s", resp.StatusCode, data)
	}
	// A dataset-backed request against the fresh registration.
	if resp, data := postJSON(t, ts1.URL+"/v1/topk", TopKRequest{
		Common: Common{Tenant: "acme", Epsilon: 1, Dataset: "demo", Queries: &QuerySpec{Kind: "all_items"}},
		K:      3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("dataset topk status = %d, body = %s", resp.StatusCode, data)
	}

	wantAcme, wantAcmeRaw := budgetOf(t, ts1, "acme")
	wantGlobex, wantGlobexRaw := budgetOf(t, ts1, "globex")
	_, wantDatasets := getJSON(t, ts1.URL+"/v1/datasets")

	// Clean shutdown: flush + compact + close.
	ts1.Close()
	s1.Close()

	s2, ts2 := newPersistentServer(t, dir, 10)
	defer s2.Close()

	// Budgets: byte-identical ledgers (budget, spent, remaining, charge
	// count, per-mechanism breakdown).
	gotAcme, gotAcmeRaw := budgetOf(t, ts2, "acme")
	if !bytes.Equal(gotAcmeRaw, wantAcmeRaw) {
		t.Errorf("acme ledger changed across restart:\n before %s\n after  %s", wantAcmeRaw, gotAcmeRaw)
	}
	if gotAcme.Spent != wantAcme.Spent || gotAcme.Charges != wantAcme.Charges {
		t.Errorf("acme spent/charges = %v/%d, want %v/%d", gotAcme.Spent, gotAcme.Charges, wantAcme.Spent, wantAcme.Charges)
	}
	for mech, eps := range wantAcme.SpentByMechanism {
		if math.Abs(gotAcme.SpentByMechanism[mech]-eps) > 1e-12 {
			t.Errorf("acme spent[%s] = %v, want %v", mech, gotAcme.SpentByMechanism[mech], eps)
		}
	}
	if _, gotGlobexRaw := budgetOf(t, ts2, "globex"); !bytes.Equal(gotGlobexRaw, wantGlobexRaw) {
		t.Errorf("globex ledger changed across restart")
	}
	_ = wantGlobex

	// Datasets: same catalog, same record/item counts; resolution counters
	// reset with the process (they are serving telemetry, not state), so
	// compare the durable fields.
	wantList := decodeInto[DatasetListResponse](t, wantDatasets)
	_, gotDatasetsRaw := getJSON(t, ts2.URL+"/v1/datasets")
	gotList := decodeInto[DatasetListResponse](t, gotDatasetsRaw)
	if len(gotList.Datasets) != len(wantList.Datasets) {
		t.Fatalf("dataset count = %d, want %d", len(gotList.Datasets), len(wantList.Datasets))
	}
	for i, want := range wantList.Datasets {
		got := gotList.Datasets[i]
		if got.Name != want.Name || got.Records != want.Records || got.Items != want.Items || got.Source != want.Source {
			t.Errorf("dataset[%d] = %+v, want %+v", i, got, want)
		}
		// The restored registration recomputed the counts exactly once.
		if got.CountScans != 1 {
			t.Errorf("dataset %q count scans = %d, want 1 (zero-rescan restore)", got.Name, got.CountScans)
		}
	}

	// Restored datasets must serve dataset-backed queries from the
	// recomputed cache.
	if resp, data := postJSON(t, ts2.URL+"/v1/topk", TopKRequest{
		Common: Common{Tenant: "acme", Epsilon: 0.5, Dataset: "sales", Queries: &QuerySpec{Kind: "all_items"}},
		K:      2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("restored dataset topk status = %d, body = %s", resp.StatusCode, data)
	}
}

// TestRestartAfterCrashNoDoubleSpend kills the server without the clean
// shutdown path and asserts the WAL alone restores the exact spend — a
// restart must never refund budget, and the restored tenant cannot spend
// more than the original remainder.
func TestRestartAfterCrashNoDoubleSpend(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistentServer(t, dir, 10)

	// Spend 6 of 10.
	for i := 0; i < 4; i++ {
		if resp, data := spendTopK(t, ts1, "acme", 1.5); resp.StatusCode != http.StatusOK {
			t.Fatalf("topk status = %d, body = %s", resp.StatusCode, data)
		}
	}
	want, _ := budgetOf(t, ts1, "acme")
	crash(t, s1, ts1)
	// No snapshot: the crash-style teardown skipped compaction.
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("crash teardown wrote a snapshot (err %v)", err)
	}

	s2, ts2 := newPersistentServer(t, dir, 10)
	got, _ := budgetOf(t, ts2, "acme")
	if got.Spent != want.Spent || got.Remaining != want.Remaining || got.Charges != want.Charges {
		t.Fatalf("ledger after crash = %+v, want %+v", got, want)
	}

	// Double-spend check: another 6ε must NOT fit (6 spent + 6 > 10); the
	// refusal is the would-exceed flavour, and the original remainder still
	// serves.
	resp, data := spendTopK(t, ts2, "acme", 6)
	if resp.StatusCode != http.StatusPaymentRequired {
		t.Fatalf("over-remainder spend status = %d, body = %s", resp.StatusCode, data)
	}
	env := decodeInto[ErrorEnvelope](t, data)
	if env.Error.Code != CodeBudgetExhausted {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeBudgetExhausted)
	}
	if env.Error.Exhausted == nil || *env.Error.Exhausted {
		t.Errorf("exhausted = %v, want false (budget remains, charge too large)", env.Error.Exhausted)
	}
	if env.Error.Remaining == nil || math.Abs(*env.Error.Remaining-4) > 1e-9 {
		t.Errorf("remaining = %v, want 4", env.Error.Remaining)
	}
	if resp, data := spendTopK(t, ts2, "acme", 4); resp.StatusCode != http.StatusOK {
		t.Fatalf("exact-remainder spend status = %d, body = %s", resp.StatusCode, data)
	}

	// Crash again with the budget fully spent; after the next restart the
	// 402 must be the exhausted flavour with an exact, stable body.
	crash(t, s2, ts2)
	s3, ts3 := newPersistentServer(t, dir, 10)
	defer s3.Close()
	resp1, body1 := spendTopK(t, ts3, "acme", 0.5)
	resp2, body2 := spendTopK(t, ts3, "acme", 0.5)
	if resp1.StatusCode != http.StatusPaymentRequired || resp2.StatusCode != http.StatusPaymentRequired {
		t.Fatalf("post-exhaustion statuses = %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	// The bodies must agree on everything but the per-request id, which is
	// unique by design.
	env1, env2 := decodeInto[ErrorEnvelope](t, body1), decodeInto[ErrorEnvelope](t, body2)
	if env1.Error.RequestID == "" || env1.Error.RequestID == env2.Error.RequestID {
		t.Errorf("request ids = %q, %q, want distinct non-empty", env1.Error.RequestID, env2.Error.RequestID)
	}
	env1.Error.RequestID, env2.Error.RequestID = "", ""
	norm1, _ := json.Marshal(env1)
	norm2, _ := json.Marshal(env2)
	if !bytes.Equal(norm1, norm2) {
		t.Errorf("402 body not stable: %s vs %s", body1, body2)
	}
	env = decodeInto[ErrorEnvelope](t, body1)
	if env.Error.Exhausted == nil || !*env.Error.Exhausted {
		t.Errorf("exhausted = %v, want true", env.Error.Exhausted)
	}
	if env.Error.Remaining == nil || *env.Error.Remaining != 0 {
		t.Errorf("remaining = %v, want 0", env.Error.Remaining)
	}
}

// TestRestartWithTruncatedTailWAL tears the WAL mid-record (a torn final
// write) and asserts the restart recovers to the last complete record.
func TestRestartWithTruncatedTailWAL(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistentServer(t, dir, 10)
	if resp, data := spendTopK(t, ts1, "acme", 1.5); resp.StatusCode != http.StatusOK {
		t.Fatalf("topk status = %d, body = %s", resp.StatusCode, data)
	}
	if resp, data := spendTopK(t, ts1, "acme", 2.5); resp.StatusCode != http.StatusOK {
		t.Fatalf("topk status = %d, body = %s", resp.StatusCode, data)
	}
	crash(t, s1, ts1)

	// Tear the tail: chop the WAL mid-way through its final record.
	walPath := filepath.Join(dir, "wal.jsonl")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 3 { // begin + 2 charges
		t.Fatalf("WAL holds %d lines, want 3: %s", len(lines), data)
	}
	last := lines[len(lines)-1]
	torn := data[:len(data)-len(last)-1+len(last)/2] // half the final record, no newline
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newPersistentServer(t, dir, 10)
	defer s2.Close()
	got, _ := budgetOf(t, ts2, "acme")
	if got.Spent != 1.5 || got.Charges != 1 {
		t.Errorf("recovered ledger = spent %v, %d charges; want 1.5 and 1 (last complete record)", got.Spent, got.Charges)
	}
	// The server stays fully writable after tail recovery.
	if resp, data := spendTopK(t, ts2, "acme", 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery spend status = %d, body = %s", resp.StatusCode, data)
	}
}

// TestRestartPreloadDoesNotConflict boots a preloading server on a state
// directory twice: the second boot must skip the already-restored preload
// instead of failing with dataset_exists, and charges keep accumulating.
func TestRestartPreloadDoesNotConflict(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Server, *httptest.Server) {
		s, err := New(Config{
			TenantBudget: 10, Seed: 42, Workers: 1,
			Persist: openLog(t, dir),
			Preload: []store.Preload{{Name: "pre", Synthetic: "bmspos", Scale: 5000, Seed: 3}},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		return s, ts
	}

	s1, ts1 := boot()
	if resp, data := postJSON(t, ts1.URL+"/v1/topk", TopKRequest{
		Common: Common{Tenant: "acme", Epsilon: 1, Dataset: "pre", Queries: &QuerySpec{Kind: "all_items"}},
		K:      2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("preloaded topk status = %d, body = %s", resp.StatusCode, data)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := boot()
	defer s2.Close()
	got, _ := budgetOf(t, ts2, "acme")
	if got.Spent != 1 {
		t.Errorf("spent = %v, want 1", got.Spent)
	}
	resp, data := getJSON(t, ts2.URL+"/v1/datasets/pre")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dataset status = %d, body = %s", resp.StatusCode, data)
	}
}

// TestDatasetRegistrationRolledBackOnJournalFailure: when a dataset cannot
// be journalled (here: the log is closed, as during shutdown), the upload
// must fail as a server fault (500, not 400), the name must not be taken,
// and a retry must not see dataset_exists — "registered" stays equivalent
// to "survives a restart".
func TestDatasetRegistrationRolledBackOnJournalFailure(t *testing.T) {
	dir := t.TempDir()
	s, ts := newPersistentServer(t, dir, 10)
	defer s.Close()

	// Kill the journal out from under the server.
	if err := s.Config().Persist.Abort(); err != nil {
		t.Fatal(err)
	}

	upload := DatasetUploadRequest{Name: "doomed", FIMI: "0 1\n1\n"}
	resp, data := postJSON(t, ts.URL+"/v1/datasets", upload)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("upload status = %d, body = %s (want 500: persistence fault, not client error)", resp.StatusCode, data)
	}
	if env := decodeInto[ErrorEnvelope](t, data); env.Error.Code != CodeInternal {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeInternal)
	}

	// The name was not burned: no phantom entry, and a retry repeats the
	// 500 rather than claiming dataset_exists.
	if resp, _ := getJSON(t, ts.URL+"/v1/datasets/doomed"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("rolled-back dataset still served: status %d", resp.StatusCode)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/datasets", upload); resp.StatusCode == http.StatusConflict {
		t.Errorf("retry saw dataset_exists after rollback: %s", data)
	}
	// The blob written ahead of the failed WAL record was reclaimed too,
	// and so was the temp the upload streamed it into: datasets/ is empty.
	if _, err := os.Stat(filepath.Join(dir, "datasets", "doomed.fimi")); !os.IsNotExist(err) {
		t.Errorf("orphaned blob left behind after rollback (err %v)", err)
	}
	if files := datasetFiles(t, dir); len(files) != 0 {
		t.Errorf("datasets/ holds %v after rollback, want nothing", files)
	}
}

// TestChargesFailClosedOnDeadJournal: once the WAL hits an I/O error, the
// accountant fails closed — budget-mutating requests get 503, nothing is
// charged, and /healthz reports the degraded state — instead of silently
// degrading to in-memory accounting that the next restart would refund.
func TestChargesFailClosedOnDeadJournal(t *testing.T) {
	dir := t.TempDir()
	s, ts := newPersistentServer(t, dir, 10)
	defer s.Close()

	if resp, data := spendTopK(t, ts, "acme", 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy spend status = %d, body = %s", resp.StatusCode, data)
	}

	s.Config().Persist.FailForTest(errors.New("simulated WAL failure"))

	// Single and batched charges are refused with 503 and charge nothing.
	resp, data := spendTopK(t, ts, "acme", 1)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead-journal spend status = %d, body = %s", resp.StatusCode, data)
	}
	if env := decodeInto[ErrorEnvelope](t, data); env.Error.Code != CodeUnavailable {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeUnavailable)
	}
	item, _ := json.Marshal(TopKRequest{Common: Common{Epsilon: 0.25, Answers: testAnswers}, K: 2})
	if resp, data := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Tenant: "acme", Requests: []BatchItem{{Mechanism: "topk", Request: item}},
	}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead-journal batch status = %d, body = %s", resp.StatusCode, data)
	}
	if got, _ := budgetOf(t, ts, "acme"); got.Spent != 1 {
		t.Errorf("spent = %v after refused charges, want 1", got.Spent)
	}

	// Reads still serve; health reports the page-worthy condition.
	resp, data = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	health := decodeInto[HealthResponse](t, data)
	if health.Status != "degraded" || health.PersistError == "" {
		t.Errorf("healthz = %+v, want degraded with persist_error", health)
	}
}

// TestRegisterDatasetPreservesDeclaredUniverse: synthetic generators declare
// item universes larger than the ids their transactions contain, and the
// FIMI blob format only carries observed ids — the journalled record's Items
// field must restore the declared size so all_items workloads keep their
// exact shape across a restart, including through the public
// RegisterDataset API.
func TestRegisterDatasetPreservesDeclaredUniverse(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistentServer(t, dir, 10)

	db, err := store.GenerateSynthetic("kosarak", 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.RegisterDataset("wide", "synthetic:kosarak", db); err != nil {
		t.Fatalf("RegisterDataset: %v", err)
	}
	want := db.NumItems()
	ts1.Close()
	s1.Close()

	s2, ts2 := newPersistentServer(t, dir, 10)
	defer s2.Close()
	resp, data := getJSON(t, ts2.URL+"/v1/datasets/wide")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dataset status = %d, body = %s", resp.StatusCode, data)
	}
	info := decodeInto[DatasetInfo](t, data)
	if info.Items != want {
		t.Errorf("restored universe = %d items, want %d (declared universe must survive the blob round trip)", info.Items, want)
	}
}
