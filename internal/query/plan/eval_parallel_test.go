package plan

import (
	"testing"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
)

// filterAll matches every record of the uniform dataset (item 0 occurs in
// all of them), so the scan's surviving-record count is the whole dataset.
func filterAll() *engine.QuerySpec {
	return &engine.QuerySpec{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(0)}}
}

func TestParallelScanFansOut(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "uniform")
	res, err := Resolve(w.store, e, filterAll(), Options{NoCache: true, Workers: 4, MinParallelRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The uniform dataset spans 3 zone blocks; with the threshold disabled
	// and no competing scan holding tokens, the fan-out must be at least 2
	// (it may stop short of 4 — the token budget is sized to GOMAXPROCS).
	if res.Stats.ParallelWorkers < 2 {
		t.Errorf("ParallelWorkers = %d, want >= 2", res.Stats.ParallelWorkers)
	}
	if res.Stats.RecordsScanned != w.raw["uniform"].NumRecords() {
		t.Errorf("scanned %d records, want all %d", res.Stats.RecordsScanned, w.raw["uniform"].NumRecords())
	}
	if res.Explain == nil || res.Explain.ParallelWorkers != res.Stats.ParallelWorkers {
		t.Errorf("explain parallel_workers = %+v, want %d", res.Explain, res.Stats.ParallelWorkers)
	}
}

func TestParallelScanThreshold(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "uniform")

	// The uniform dataset (2 blocks + 100 records) is below the default
	// 4-block threshold: even with workers offered, the scan stays serial.
	if 2*dataset.BlockRecords+100 >= DefaultMinParallelRecords {
		t.Fatal("test premise broken: uniform dataset no longer below the default threshold")
	}
	res, err := Resolve(w.store, e, filterAll(), Options{NoCache: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ParallelWorkers != 1 {
		t.Errorf("below-threshold scan: ParallelWorkers = %d, want 1", res.Stats.ParallelWorkers)
	}

	// A positive threshold the dataset clears lets the same scan fan out.
	res, err = Resolve(w.store, e, filterAll(), Options{NoCache: true, Workers: 4, MinParallelRecords: dataset.BlockRecords})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ParallelWorkers < 2 {
		t.Errorf("above-threshold scan: ParallelWorkers = %d, want >= 2", res.Stats.ParallelWorkers)
	}

	// Workers: 1 forces serial no matter the size.
	res, err = Resolve(w.store, e, filterAll(), Options{NoCache: true, Workers: 1, MinParallelRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ParallelWorkers != 1 {
		t.Errorf("Workers=1 scan: ParallelWorkers = %d, want 1", res.Stats.ParallelWorkers)
	}
}

func TestParallelScanTokenExhaustionFallsBackSerial(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "uniform")

	// Fill the process-wide token budget so the scan cannot claim a single
	// extra goroutine: it must fall back to the serial path, not queue.
	claimed := 0
fill:
	for {
		select {
		case scanTokens <- struct{}{}:
			claimed++
		default:
			break fill
		}
	}
	defer func() {
		for ; claimed > 0; claimed-- {
			<-scanTokens
		}
	}()

	res, err := Resolve(w.store, e, filterAll(), Options{NoCache: true, Workers: 4, MinParallelRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ParallelWorkers != 1 {
		t.Errorf("token-starved scan: ParallelWorkers = %d, want 1 (serial fallback)", res.Stats.ParallelWorkers)
	}
	if res.Stats.RecordsScanned != w.raw["uniform"].NumRecords() {
		t.Errorf("scanned %d records, want all %d", res.Stats.RecordsScanned, w.raw["uniform"].NumRecords())
	}
}
