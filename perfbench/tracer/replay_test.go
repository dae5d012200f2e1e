package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/query/plan"
	"github.com/freegap/freegap/internal/store"
	"github.com/freegap/freegap/perfbench/workload"
)

// generated runs the generators cmd/datagen uses, scaled down, through the
// FIMI text format as the benchmark does.
func generated(t *testing.T, name string) (map[string]*workload.Data, map[string]*dataset.Transactions) {
	t.Helper()
	inputs, err := workload.Inputs(name)
	if err != nil {
		t.Fatal(err)
	}
	data := map[string]*workload.Data{}
	dbs := map[string]*dataset.Transactions{}
	for i, in := range inputs {
		var db *dataset.Transactions
		switch in.Kind {
		case "quest":
			db = dataset.T40I10D100KConfig().ScaledDown(100).Generate(uint64(i + 1))
		default:
			db = dataset.BMSPOSConfig().ScaledDown(in.Scale * 50).Generate(uint64(i + 1))
		}
		var buf bytes.Buffer
		if err := dataset.WriteFIMI(&buf, db); err != nil {
			t.Fatal(err)
		}
		if data[in.Name], err = workload.ParseFIMI(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		if dbs[in.Name], err = dataset.ReadFIMI(&buf, in.Name); err != nil {
			t.Fatal(err)
		}
	}
	return data, dbs
}

// TestReferenceMatchesPlanner checks the benchmark's naive reference
// evaluator against the server's query planner on the specs the scan-cold
// workload actually sends.
func TestReferenceMatchesPlanner(t *testing.T) {
	data, dbs := generated(t, workload.ScanCold)
	p, err := workload.Build(workload.ScanCold, 5, 1, data)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	for _, name := range p.Datasets {
		if _, err := st.Register(name, "test", dbs[name]); err != nil {
			t.Fatal(err)
		}
	}
	checked := 0
	for _, op := range p.Ops[:400] {
		for _, req := range op.Reqs {
			if req.Spec == nil {
				continue
			}
			want, err := workload.Answers(data[req.Dataset].Records, req.Spec)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := json.Marshal(req.Spec)
			var spec engine.QuerySpec
			if err := json.Unmarshal(raw, &spec); err != nil {
				t.Fatal(err)
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("%s: %v", raw, err)
			}
			e, _ := st.Get(req.Dataset)
			var got []float64
			if spec.Composite() {
				res, err := plan.Resolve(st, e, &spec, plan.Options{})
				if err != nil {
					t.Fatal(err)
				}
				got = res.Answers
			} else if spec.Kind == engine.QueryItemCount {
				if got, err = e.ResolveItems(spec.Items); err != nil {
					t.Fatal(err)
				}
			} else {
				got = e.ResolveAll()
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s: planner and reference disagree", raw, req.Dataset)
			}
			checked++
		}
	}
	if checked < 300 {
		t.Errorf("only %d specs checked", checked)
	}
}
