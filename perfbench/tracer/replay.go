package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/freegap/freegap/internal/accountant"
	"github.com/freegap/freegap/internal/core"
	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/persist"
	"github.com/freegap/freegap/internal/query/plan"
	"github.com/freegap/freegap/internal/rng"
	"github.com/freegap/freegap/internal/store"
	"github.com/freegap/freegap/perfbench/workload"
)

// maxAnswers is the server's default per-request answer cap.
const maxAnswers = 1 << 20

// monitor mirrors one served SVT monitor: the same mechanism configuration
// and journalled seed as the server's, so its verdicts match bit for bit.
type monitor struct {
	item      int32
	stream    *core.SVTStream
	subscribe bool
	verdicts  []verdictJSON
}

// replay holds the layers the server wires together, built from their
// public constructors.
type replay struct {
	t     *tracer
	st    *store.Store
	lg    *persist.Log
	state string
	reg   *engine.Registry
	src   *rng.Xoshiro
	scr   *engine.Scratch
	items []*engine.Scratch // one per batch item
	lim   dataset.FIMILimits
	accts map[string]*accountant.Accountant
	mons  map[string][]*monitor
	order []*monitor
	seqs  map[string]uint64

	uploadBytes int
	walStart    int64
	laplaceN    int

	// Counts over the replayed ops, as the binary's /metrics count them.
	hits, misses, skipped, scanned float64
	workersSum, workersN           float64
	appends, verdicts              float64
	compileUS                      []float64
	engineAlloc, appendAlloc       float64
	queryOps                       int
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative bytes allocated on the heap so far.
func heapAllocs() float64 {
	metrics.Read(allocSample)
	return float64(allocSample[0].Value.Uint64())
}

func newReplay(p *workload.Plan, fimi map[string][]byte, state string) (*replay, error) {
	lg, err := persist.Open(state, persist.Options{Fsync: persist.FsyncBatch, CompactEvery: -1})
	if err != nil {
		return nil, err
	}
	st := store.New()
	lim := st.Limits()
	r := &replay{
		t: newTracer(len(p.Ops) * 12), st: st, lg: lg, state: state,
		reg: engine.DefaultRegistry(), src: rng.NewXoshiro(1), scr: engine.NewScratch(),
		lim:   dataset.FIMILimits{MaxRecords: lim.MaxRecords, MaxItemID: int32(lim.MaxItems) - 1},
		accts: map[string]*accountant.Accountant{}, mons: map[string][]*monitor{}, seqs: map[string]uint64{},
	}
	for _, name := range p.Datasets {
		s := r.t.begin("dataset.read_fimi_upload")
		db, err := dataset.ReadFIMILimited(bytes.NewReader(fimi[name]), name, r.lim)
		r.t.end(s)
		if err != nil {
			r.close()
			return nil, err
		}
		r.uploadBytes += len(fimi[name])
		s = r.t.begin("store.register")
		e, err := st.Register(name, "upload:fimi", db)
		r.t.end(s)
		if err != nil {
			r.close()
			return nil, err
		}
		s = r.t.begin("persist.blob")
		rel, err := lg.SaveDatasetBlob(name, e.Dataset())
		if err == nil {
			info := e.Info()
			err = lg.AppendDataset(persist.DatasetRecord{Name: name, Source: info.Source, Items: info.Items, File: rel})
		}
		r.t.end(s)
		if err != nil {
			r.close()
			return nil, err
		}
		if r.laplaceN == 0 {
			r.laplaceN = len(e.ResolveAll())
		}
	}
	for i, m := range p.Monitors {
		if err := r.acct(m.Tenant).Spend("monitors", m.Epsilon); err != nil {
			r.close()
			return nil, err
		}
		rec := persist.MonitorRecord{
			ID: workload.MonitorID(i), Tenant: m.Tenant, Dataset: m.Dataset, Item: m.Item, Threshold: m.Threshold,
			Epsilon: m.Epsilon, MaxAnswers: m.MaxAnswers, Adaptive: m.Adaptive, Monotonic: true, Seed: m.Seed,
		}
		if err := lg.AppendMonitor(rec); err != nil {
			r.close()
			return nil, err
		}
		mech := &core.AdaptiveSVTWithGap{K: m.MaxAnswers, Epsilon: m.Epsilon, Threshold: m.Threshold,
			Monotonic: true, MaxAnswers: m.MaxAnswers}
		if !m.Adaptive {
			mech.SigmaMultiplier = math.Inf(1)
		}
		stream, err := core.NewSVTStream(mech, rng.NewXoshiro(m.Seed))
		if err != nil {
			r.close()
			return nil, err
		}
		mon := &monitor{item: m.Item, stream: stream, subscribe: m.Subscribe}
		r.mons[m.Dataset] = append(r.mons[m.Dataset], mon)
		r.order = append(r.order, mon)
		e, _ := st.Get(m.Dataset)
		r.observe(mon, e)
	}
	if err := lg.Flush(); err != nil {
		r.close()
		return nil, err
	}
	r.walStart = r.walSize()
	return r, nil
}

func (r *replay) close() {
	_ = r.lg.Close()
	_ = r.st.Close()
}

func (r *replay) walSize() int64 {
	fi, err := os.Stat(filepath.Join(r.state, "wal.jsonl"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// acct returns the tenant's accountant, provisioning it with the server's
// journal hook on first use.
func (r *replay) acct(tenant string) *accountant.Accountant {
	a, ok := r.accts[tenant]
	if !ok {
		a = accountant.MustNew(workload.Budget)
		a.SetJournal(func(charges []accountant.Charge) { r.lg.AppendCharge(tenant, charges) })
		r.accts[tenant] = a
	}
	return a
}

// observe feeds the monitor its item's current count, as the server does
// on registration and after every append to the monitor's dataset.
func (r *replay) observe(m *monitor, e *store.Entry) bool {
	v := e.View()
	counts := v.Arena().Counts()
	count := 0.0
	if int(m.item) < len(counts) {
		count = counts[m.item]
	}
	s := r.t.begin("core.svt_arrive")
	item, ok := m.stream.Arrive(count)
	r.t.end(s)
	if !ok {
		return false
	}
	vj := verdictJSON{Seq: len(m.verdicts), Records: v.Dataset().NumRecords(), Above: item.Above,
		Branch: item.Branch.String(), Retired: m.stream.Done()}
	if item.Above {
		vj.Gap = item.Gap
	}
	m.verdicts = append(m.verdicts, vj)
	return true
}

// Resolve is the engine Resolver the server injects: leaf specs straight
// from the cached counts, composite specs through the query planner with
// default options.
func (r *replay) Resolve(name string, spec *engine.QuerySpec) ([]float64, bool, error) {
	e, err := r.st.Get(name)
	if err != nil {
		return nil, false, err
	}
	switch spec.Kind {
	case engine.QueryAllItems:
		s := r.t.begin("store.resolve_leaf")
		a := e.ResolveAll()
		r.t.end(s)
		return a, true, nil
	case engine.QueryItemCount:
		s := r.t.begin("store.resolve_leaf")
		a, err := e.ResolveItems(spec.Items)
		r.t.end(s)
		return a, true, err
	}
	s := r.t.begin("plan.resolve")
	res, err := plan.Resolve(r.st, e, spec, plan.Options{})
	r.t.end(s)
	if err != nil {
		return nil, false, err
	}
	r.compileUS = append(r.compileUS, float64(res.Compile.Nanoseconds())/1e3)
	if res.CacheHit {
		r.t.spans[s].Name = "plan.resolve_hit"
		r.hits++
	} else {
		r.t.spans[s].Name = "plan.resolve_miss"
		r.misses++
	}
	r.skipped += float64(res.Stats.RecordsSkipped)
	r.scanned += float64(res.Stats.RecordsScanned)
	if res.Stats.ParallelWorkers > 0 {
		r.workersSum += float64(res.Stats.ParallelWorkers)
		r.workersN++
	}
	return res.Answers, res.Monotonic, nil
}

// engineCall runs fn in a span, adding its heap allocations to the engine
// layer's tally.
func (r *replay) engineCall(name string, fn func() error) error {
	a := heapAllocs()
	s := r.t.begin(name)
	err := fn()
	r.t.end(s)
	r.engineAlloc += heapAllocs() - a
	return err
}

func (r *replay) op(i int, op *workload.Op) error {
	r.t.op = int32(i)
	root := r.t.begin("op." + op.Class)
	defer r.t.end(root)
	switch op.Class {
	case workload.ClassAppend:
		return r.appendOp(op)
	case workload.ClassPoll:
		s := r.t.begin("accountant.read")
		a, ok := r.accts[op.Tenant]
		if ok {
			_, _, _ = a.Spent(), a.ChargeCount(), a.SpentByLabel()
		}
		r.t.end(s)
		if !ok {
			return fmt.Errorf("poll of unknown tenant %q", op.Tenant)
		}
		return nil
	case workload.ClassBatch:
		r.queryOps++
		return r.batch(op)
	}
	r.queryOps++
	return r.query(op)
}

// query replays one mechanism request: decode → resolve → validate/cost →
// spend → execute → encode.
func (r *replay) query(op *workload.Op) error {
	mech, err := r.reg.Get(op.Reqs[0].Mechanism)
	if err != nil {
		return err
	}
	var req engine.Request
	if err := r.engineCall("engine.decode", func() error {
		var ok bool
		req, ok, err = engine.DecodeRequest(mech, op.Body, r.scr)
		if err == nil && !ok {
			err = errors.New("no codec")
		}
		return err
	}); err != nil {
		return err
	}
	s := r.t.begin("engine.resolve")
	err = engine.ResolveRequest(req, r)
	r.t.end(s)
	if err != nil {
		return err
	}
	var cost float64
	if err := r.engineCall("engine.validate", func() error {
		cost = mech.Cost(req)
		return mech.Validate(req, engine.Limits{MaxAnswers: maxAnswers})
	}); err != nil {
		return err
	}
	a := r.acct(op.Tenant)
	s = r.t.begin("accountant.spend")
	err = a.Spend(mech.Name(), cost)
	r.t.end(s)
	if err != nil {
		return err
	}
	var resp engine.Response
	if err := r.engineCall("engine.execute."+op.Class, func() error {
		resp, err = mech.Execute(r.src, req, r.scr)
		return err
	}); err != nil {
		return err
	}
	resp.SetBilling(op.Tenant, cost, a.Remaining())
	return r.engineCall("engine.encode", func() error {
		out, _, ok, err := engine.AppendResponse(r.scr.Out[:0], resp)
		r.scr.Out = out
		if err == nil && !ok {
			err = errors.New("no codec")
		}
		return err
	})
}

// batch replays POST /v1/batch: per item decode → resolve → validate/cost,
// one SpendBatch, one unit-noise fill shared by every UnitNoiser item,
// then each item's execution and encoding.
func (r *replay) batch(op *workload.Op) error {
	var body struct {
		Tenant   string `json:"tenant"`
		Requests []struct {
			Mechanism string          `json:"mechanism"`
			Request   json.RawMessage `json:"request"`
		} `json:"requests"`
	}
	s := r.t.begin("json.decode")
	err := json.Unmarshal(op.Body, &body)
	r.t.end(s)
	if err != nil {
		return err
	}
	type item struct {
		mech          engine.Mechanism
		req           engine.Request
		cost          float64
		off, noiseLen int
	}
	items := make([]item, len(body.Requests))
	charges := make([]accountant.Charge, len(items))
	for i, br := range body.Requests {
		mech, err := r.reg.Get(br.Mechanism)
		if err != nil {
			return err
		}
		it := &items[i]
		it.mech = mech
		if err := r.engineCall("engine.decode", func() error {
			it.req, _, err = engine.DecodeRequest(mech, br.Request, nil)
			return err
		}); err != nil {
			return err
		}
		it.req.Base().Tenant = body.Tenant
		s := r.t.begin("engine.resolve")
		err = engine.ResolveRequest(it.req, r)
		r.t.end(s)
		if err != nil {
			return err
		}
		if err := r.engineCall("engine.validate", func() error {
			it.cost = mech.Cost(it.req)
			return mech.Validate(it.req, engine.Limits{MaxAnswers: maxAnswers})
		}); err != nil {
			return err
		}
		charges[i] = accountant.Charge{Label: mech.Name(), Epsilon: it.cost}
	}
	a := r.acct(body.Tenant)
	s = r.t.begin("accountant.spend_batch")
	err = a.SpendBatch(charges)
	r.t.end(s)
	if err != nil {
		return err
	}
	for len(r.items) < len(items) {
		r.items = append(r.items, engine.NewScratch())
	}
	resps := make([]engine.Response, len(items))
	if err := r.engineCall("engine.execute.batch", func() error {
		total := 0
		for i := range items {
			it := &items[i]
			it.noiseLen = -1
			if un, ok := it.mech.(engine.UnitNoiser); ok {
				if n := un.UnitNoiseLen(it.req); n >= 0 {
					it.off, it.noiseLen = total, n
					total += n
				}
			}
		}
		unit := rng.LaplaceVec(r.src, 1, total, make([]float64, total))
		for i := range items {
			it := &items[i]
			var err error
			if it.noiseLen >= 0 {
				resps[i], err = it.mech.(engine.UnitNoiser).ExecuteUnitNoise(it.req, unit[it.off:it.off+it.noiseLen], r.items[i])
			} else {
				resps[i], err = it.mech.Execute(r.src, it.req, r.items[i])
			}
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	remaining := a.Remaining()
	for i, resp := range resps {
		resp.SetBilling(body.Tenant, items[i].cost, remaining)
		if err := r.engineCall("engine.encode", func() error {
			out, _, _, err := engine.AppendResponse(r.items[i].Out[:0], resp)
			r.items[i].Out = out
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// appendOp replays POST /v1/datasets/{name}/append: parse → prepare →
// journal → install → one SVT arrival per monitor of the dataset.
func (r *replay) appendOp(op *workload.Op) error {
	var body struct {
		FIMI string `json:"fimi"`
	}
	s := r.t.begin("json.decode")
	err := json.Unmarshal(op.Body, &body)
	r.t.end(s)
	if err != nil {
		return err
	}
	s = r.t.begin("dataset.read_fimi")
	parsed, err := dataset.ReadFIMILimited(strings.NewReader(body.FIMI), op.Dataset, r.lim)
	r.t.end(s)
	if err != nil {
		return err
	}
	delta := make([][]int32, parsed.NumRecords())
	for i := range delta {
		delta[i] = parsed.Record(i)
	}
	a0 := heapAllocs()
	s = r.t.begin("store.prepare_append")
	p, err := r.st.PrepareAppend(op.Dataset, delta)
	r.t.end(s)
	if err != nil {
		return err
	}
	a1 := heapAllocs()
	seq := r.seqs[op.Dataset] + 1
	s = r.t.begin("persist.append_delta")
	err = r.lg.AppendDelta(persist.AppendRecord{Name: op.Dataset, Seq: seq, Records: delta})
	r.t.end(s)
	if err != nil {
		return err
	}
	a2 := heapAllocs()
	s = r.t.begin("store.install_append")
	e, err := r.st.InstallAppend(p)
	r.t.end(s)
	if err != nil {
		return err
	}
	r.appendAlloc += (a1 - a0) + (heapAllocs() - a2)
	r.seqs[op.Dataset] = seq
	r.appends++
	for _, m := range r.mons[op.Dataset] {
		if r.observe(m, e) {
			r.verdicts++
		}
	}
	return nil
}

// laplaceNsPerValue times unit-scale Laplace fills at the workload's
// query-vector size.
func (r *replay) laplaceNsPerValue() float64 {
	buf := make([]float64, r.laplaceN)
	var per []float64
	for i := 0; i < 64; i++ {
		start := time.Now()
		rng.LaplaceVec(r.src, 1, r.laplaceN, buf)
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(r.laplaceN))
	}
	return workload.Median(per)
}

// report computes the per-layer metrics over every replayed op (warm-up
// included), and the traced query and append p50 over the measured ops.
func (r *replay) report(warmup, n int) (*output, error) {
	if err := r.lg.Flush(); err != nil {
		return nil, err
	}
	total, self := r.t.durations(func(*span) bool { return true })
	measured, _ := r.t.durations(func(s *span) bool { return s.Op >= int32(warmup) && s.Parent < 0 })
	var queryRoots []float64
	for _, c := range workload.QueryClasses {
		queryRoots = append(queryRoots, measured["op."+c]...)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{
		"engine.decode_us":               workload.Median(self["engine.decode"]),
		"engine.validate_us":             workload.Median(self["engine.validate"]),
		"engine.encode_us":               workload.Median(self["engine.encode"]),
		"engine.alloc_bytes_per_op":      ratio(r.engineAlloc, float64(r.queryOps)),
		"rng.laplace_ns_per_value":       r.laplaceNsPerValue(),
		"core.svt_arrive_us":             workload.Median(self["core.svt_arrive"]),
		"plan.canonical_us":              workload.Median(r.compileUS),
		"plan.resolve_miss_us":           workload.Median(total["plan.resolve_miss"]),
		"plan.resolve_hit_us":            workload.Median(total["plan.resolve_hit"]),
		"plan.cache_hit_ratio":           ratio(r.hits, r.hits+r.misses),
		"plan.records_scanned_per_query": ratio(r.scanned, r.hits+r.misses),
		"plan.skipped_share":             ratio(r.skipped, r.skipped+r.scanned),
		"plan.parallel_workers":          ratio(r.workersSum, r.workersN),
		"store.register_ms":              sum(total["store.register"]) / 1e3,
		"store.resolve_leaf_us":          workload.Median(self["store.resolve_leaf"]),
		"store.prepare_append_us":        workload.Median(self["store.prepare_append"]),
		"store.install_append_us":        workload.Median(self["store.install_append"]),
		"store.append_alloc_bytes":       ratio(r.appendAlloc, r.appends),
		"dataset.parse_ms_per_mb":        sum(total["dataset.read_fimi_upload"]) / 1e3 / (float64(r.uploadBytes) / (1 << 20)),
		"dataset.delta_parse_us":         workload.Median(self["dataset.read_fimi"]),
		"accountant.spend_us":            workload.Median(self["accountant.spend"]),
		"accountant.spend_batch_us":      workload.Median(self["accountant.spend_batch"]),
		"persist.append_us":              workload.Median(self["persist.append_delta"]),
		"persist.blob_ms":                sum(total["persist.blob"]) / 1e3,
		"persist.wal_bytes_per_op":       float64(r.walSize()-r.walStart) / float64(n),
		"trace.query_p50_us":             workload.Median(queryRoots),
		"trace.append_p50_us":            workload.Median(measured["op."+workload.ClassAppend]),
	}
	for _, c := range workload.QueryClasses {
		m["engine.execute_us."+c] = workload.Median(total["engine.execute."+c])
	}
	counts := map[string]float64{
		"plan_cache_hits": r.hits, "plan_cache_misses": r.misses, "records_skipped": r.skipped,
		"scan_workers_sum": r.workersSum, "scan_workers_count": r.workersN,
		"appends": r.appends, "monitor_verdicts": r.verdicts,
	}
	for _, name := range r.st.Names() {
		e, _ := r.st.Get(name)
		counts["count_scans."+name] = float64(e.CountScans())
	}
	out := &output{Metrics: m, Counts: counts}
	for _, mon := range r.order {
		if mon.subscribe {
			out.Verdicts = mon.verdicts
		}
	}
	return out, nil
}
