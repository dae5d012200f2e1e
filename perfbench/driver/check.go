package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/freegap/freegap/perfbench/workload"
)

// Response shapes, decoded only as far as the checks need.
type billing struct {
	Tenant          string  `json:"tenant"`
	EpsilonSpent    float64 `json:"epsilon_spent"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

type selection struct {
	Index int     `json:"index"`
	Gap   float64 `json:"gap"`
}

type topkResp struct {
	billing
	Selections []selection `json:"selections"`
}

type maxResp struct {
	billing
	Index int     `json:"index"`
	Gap   float64 `json:"gap"`
}

type svtResp struct {
	billing
	Above []struct {
		Index    int     `json:"index"`
		Gap      float64 `json:"gap"`
		Estimate float64 `json:"estimate"`
		Branch   string  `json:"branch"`
	} `json:"above"`
	AboveCount       int     `json:"above_count"`
	QueriesProcessed int     `json:"queries_processed"`
	MechanismSpent   float64 `json:"mechanism_spent"`
}

type pipelineTopKResp struct {
	billing
	Estimates []struct {
		Index int `json:"index"`
	} `json:"estimates"`
	MeasurementVariance float64 `json:"measurement_variance"`
}

type pipelineSVTResp struct {
	billing
	Estimates []struct {
		Index            int     `json:"index"`
		CombinedVariance float64 `json:"combined_variance"`
	} `json:"estimates"`
	AboveCount     int     `json:"above_count"`
	MechanismSpent float64 `json:"mechanism_spent"`
}

type batchResp struct {
	Tenant  string `json:"tenant"`
	Results []struct {
		Mechanism string          `json:"mechanism"`
		Response  json.RawMessage `json:"response"`
		Error     json.RawMessage `json:"error"`
	} `json:"results"`
	EpsilonSpent    float64 `json:"epsilon_spent"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

type budgetResp struct {
	Tenant  string  `json:"tenant"`
	Budget  float64 `json:"budget"`
	Spent   float64 `json:"spent"`
	Charges int     `json:"charges"`
}

type appendResp struct {
	Dataset         string `json:"dataset"`
	AppendedRecords int    `json:"appended_records"`
	Seq             int    `json:"seq"`
	Records         int    `json:"records"`
	Items           int    `json:"items"`
	MonitorVerdicts int    `json:"monitor_verdicts"`
}

// epsTol bounds float disagreement in ε arithmetic: budgets are 1e12, where
// one ulp is ~1e-4.
const epsTol = 1e-3

// refDataset is the benchmark's copy of one served dataset as the stream
// has changed it so far.
type refDataset struct {
	records  [][]int32
	universe int
	counts   []float64 // maintained incrementally across appends
	appends  int
	monitors int
	// resolved counts the resolutions sent against the dataset; composite
	// reports whether any of them went through the query planner.
	resolved  int
	composite bool
	// cache holds reference answers by spec, valid for one record count.
	cache     map[string][]float64
	cacheSize int
}

func newRefDataset(d *workload.Data) *refDataset {
	u := workload.Universe(d.Records)
	return &refDataset{records: d.Records, universe: u, counts: workload.Counts(d.Records, u)}
}

func (r *refDataset) apply(delta [][]int32) {
	r.records = append(r.records, delta...)
	if u := workload.Universe(delta); u > r.universe {
		r.counts = append(r.counts, make([]float64, u-r.universe)...)
		r.universe = u
	}
	for _, rec := range delta {
		seen := map[int32]bool{}
		for _, it := range rec {
			if !seen[it] {
				seen[it] = true
				r.counts[it]++
			}
		}
	}
	r.appends++
}

// answers is the reference answer vector for spec at the current state.
func (r *refDataset) answers(spec *workload.Spec) ([]float64, error) {
	if spec.Kind == workload.KindAllItems {
		return r.counts, nil
	}
	if r.cacheSize != len(r.records) {
		r.cache, r.cacheSize = map[string][]float64{}, len(r.records)
	}
	key, _ := json.Marshal(spec)
	if v, ok := r.cache[string(key)]; ok {
		return v, nil
	}
	v, err := workload.Answers(r.records, spec)
	if err != nil {
		return nil, err
	}
	r.cache[string(key)] = v
	return v, nil
}

// checker replays the stream's effects on the reference state in op order
// and checks each response against it.
type checker struct {
	data  map[string]*refDataset
	spent map[string]float64
	count map[string]int
}

func newChecker(p *workload.Plan, data map[string]*workload.Data) *checker {
	c := &checker{data: map[string]*refDataset{}, spent: map[string]float64{}, count: map[string]int{}}
	for _, name := range p.Datasets {
		c.data[name] = newRefDataset(data[name])
	}
	for _, m := range p.Monitors {
		c.data[m.Dataset].monitors++
		c.charge(m.Tenant, m.Epsilon, 1)
	}
	return c
}

func (c *checker) charge(tenant string, eps float64, n int) {
	c.spent[tenant] += eps
	c.count[tenant] += n
}

// remaining is the tenant's expected unspent budget.
func (c *checker) remaining(tenant string) float64 { return budget - c.spent[tenant] }

// check verifies one op's response and advances the reference state.
func (c *checker) check(op *workload.Op, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("%s %s: status %d: %.200s", op.Method, op.Path, status, body)
	}
	switch op.Class {
	case workload.ClassPoll:
		return c.checkPoll(op, body)
	case workload.ClassAppend:
		return c.checkAppend(op, body)
	case workload.ClassBatch:
		c.charge(op.Tenant, op.Cost(), len(op.Reqs))
		return c.checkBatch(op, body)
	default:
		c.charge(op.Tenant, op.Cost(), 1)
		return c.checkReq(&op.Reqs[0], op.Tenant, body, c.remaining(op.Tenant))
	}
}

func (c *checker) checkPoll(op *workload.Op, body []byte) error {
	var r budgetResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("poll: %w", err)
	}
	return c.reconcileTenant(op.Tenant, &r)
}

// reconcileTenant compares a budget response with everything sent so far.
func (c *checker) reconcileTenant(tenant string, r *budgetResp) error {
	switch {
	case r.Tenant != tenant || r.Budget != budget:
		return fmt.Errorf("tenant %s: budget response names %q with budget %g", tenant, r.Tenant, r.Budget)
	case math.Abs(r.Spent-c.spent[tenant]) > epsTol:
		return fmt.Errorf("tenant %s: spent %g, sent %g", tenant, r.Spent, c.spent[tenant])
	case r.Charges != c.count[tenant]:
		return fmt.Errorf("tenant %s: %d charges, sent %d", tenant, r.Charges, c.count[tenant])
	}
	return nil
}

func (c *checker) checkAppend(op *workload.Op, body []byte) error {
	var r appendResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	d := c.data[op.Dataset]
	d.apply(op.Delta)
	switch {
	case r.Dataset != op.Dataset || r.AppendedRecords != len(op.Delta):
		return fmt.Errorf("append to %s: ack for %q with %d records", op.Dataset, r.Dataset, r.AppendedRecords)
	case r.Records != len(d.records) || r.Items != d.universe:
		return fmt.Errorf("append to %s: ack says %d records/%d items, reference %d/%d", op.Dataset, r.Records, r.Items, len(d.records), d.universe)
	case r.Seq != d.appends:
		return fmt.Errorf("append to %s: seq %d, want %d", op.Dataset, r.Seq, d.appends)
	case r.MonitorVerdicts < 0 || r.MonitorVerdicts > d.monitors:
		return fmt.Errorf("append to %s: %d verdicts from %d monitors", op.Dataset, r.MonitorVerdicts, d.monitors)
	}
	return nil
}

func (c *checker) checkBatch(op *workload.Op, body []byte) error {
	var r batchResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	rem := c.remaining(op.Tenant)
	switch {
	case r.Tenant != op.Tenant || len(r.Results) != len(op.Reqs):
		return fmt.Errorf("batch: %d results for tenant %q, want %d for %q", len(r.Results), r.Tenant, len(op.Reqs), op.Tenant)
	case math.Abs(r.EpsilonSpent-op.Cost()) > 1e-9 || math.Abs(r.BudgetRemaining-rem) > epsTol:
		return fmt.Errorf("batch: spent %g remaining %g, want %g and %g", r.EpsilonSpent, r.BudgetRemaining, op.Cost(), rem)
	}
	for i, res := range r.Results {
		if res.Mechanism != op.Reqs[i].Mechanism || len(res.Error) > 0 {
			return fmt.Errorf("batch item %d (%s): mechanism %q error %s", i, op.Reqs[i].Mechanism, res.Mechanism, res.Error)
		}
		if err := c.checkReq(&op.Reqs[i], op.Tenant, res.Response, rem); err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
	}
	return nil
}

// answers returns the reference answers of a request (nil when only the
// length is needed and computing them would need a scan).
func (c *checker) answers(req *workload.Req, exact bool) (n int, ref []float64, err error) {
	if req.Answers != nil {
		return len(req.Answers), req.Answers, nil
	}
	d := c.data[req.Dataset]
	d.resolved++
	if req.Spec.Composite() {
		d.composite = true
	}
	switch {
	case req.Spec.Kind == workload.KindItemCount:
		return len(req.Spec.Items), nil, nil
	case !exact:
		return d.universe, nil, nil
	}
	ref, err = d.answers(req.Spec)
	return d.universe, ref, err
}

// checkReq checks one mechanism response's structure, billing and — for
// exactness probes — its selection against the reference counts.
func (c *checker) checkReq(req *workload.Req, tenant string, body []byte, remaining float64) error {
	probe := req.Epsilon == workload.ProbeEpsilon
	n, ref, err := c.answers(req, probe)
	if err != nil {
		return err
	}
	var b billing
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("%s: %w", req.Mechanism, err)
	}
	if b.Tenant != tenant || b.EpsilonSpent != req.Epsilon || math.Abs(b.BudgetRemaining-remaining) > epsTol {
		return fmt.Errorf("%s: billed %q ε=%g remaining %g, want %q ε=%g remaining %g",
			req.Mechanism, b.Tenant, b.EpsilonSpent, b.BudgetRemaining, tenant, req.Epsilon, remaining)
	}
	switch req.Mechanism {
	case "topk":
		var r topkResp
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		idx := make([]int, len(r.Selections))
		for i, s := range r.Selections {
			if s.Gap < 0 || math.IsNaN(s.Gap) {
				return fmt.Errorf("topk: selection %d has gap %g", i, s.Gap)
			}
			idx[i] = s.Index
		}
		if err := distinctIndices("topk", idx, req.K, n); err != nil {
			return err
		}
		if probe {
			return checkProbe(r.Selections, ref, req.K)
		}
	case "max":
		var r maxResp
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Index < 0 || r.Index >= n || !(r.Gap >= 0) {
			return fmt.Errorf("max: index %d of %d, gap %g", r.Index, n, r.Gap)
		}
	case "svt":
		var r svtResp
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		// Adaptive SVT's top branch spends less than a middle answer, so it
		// may answer more than k queries; plain SVT answers at most k.
		if r.AboveCount != len(r.Above) || (!req.Adaptive && len(r.Above) > req.K) ||
			r.QueriesProcessed < len(r.Above) || r.QueriesProcessed > n ||
			r.MechanismSpent > req.Epsilon+1e-9 {
			return fmt.Errorf("svt: %d above (count %d, k %d), %d of %d processed, spent %g of %g",
				len(r.Above), r.AboveCount, req.K, r.QueriesProcessed, n, r.MechanismSpent, req.Epsilon)
		}
		last := -1
		for _, a := range r.Above {
			if a.Index <= last || a.Index >= r.QueriesProcessed || !(a.Gap >= 0) ||
				math.Abs(a.Estimate-(a.Gap+req.Threshold)) > 1e-6*math.Max(1, math.Abs(a.Estimate)) ||
				(a.Branch != "top" && a.Branch != "middle") {
				return fmt.Errorf("svt: bad above answer %+v after index %d", a, last)
			}
			last = a.Index
		}
	case "pipeline/topk":
		var r pipelineTopKResp
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		idx := make([]int, len(r.Estimates))
		for i, e := range r.Estimates {
			idx[i] = e.Index
		}
		if err := distinctIndices("pipeline/topk", idx, req.K, n); err != nil {
			return err
		}
		if !(r.MeasurementVariance > 0) {
			return fmt.Errorf("pipeline/topk: measurement variance %g", r.MeasurementVariance)
		}
	case "pipeline/svt":
		var r pipelineSVTResp
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Estimates) != r.AboveCount || (!req.Adaptive && r.AboveCount > req.K) || r.MechanismSpent > req.Epsilon+1e-9 {
			return fmt.Errorf("pipeline/svt: %d estimates, above %d, k %d, spent %g", len(r.Estimates), r.AboveCount, req.K, r.MechanismSpent)
		}
		last := -1
		for _, e := range r.Estimates {
			if e.Index <= last || e.Index >= n || !(e.CombinedVariance > 0) {
				return fmt.Errorf("pipeline/svt: bad estimate %+v after index %d", e, last)
			}
			last = e.Index
		}
	default:
		return fmt.Errorf("no check for mechanism %q", req.Mechanism)
	}
	return nil
}

// distinctIndices checks that a selection holds exactly k distinct indices
// in [0, n).
func distinctIndices(mech string, idx []int, k, n int) error {
	if len(idx) != k {
		return fmt.Errorf("%s: %d selections, want %d", mech, len(idx), k)
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("%s: index %d repeated or outside [0, %d)", mech, i, n)
		}
		seen[i] = true
	}
	return nil
}

// checkProbe checks a high-ε top-k against the naive reference: the true
// counts of the selected items must be the k largest true counts, and each
// released gap must be within 0.5 of the true gap to the next rank.
func checkProbe(sels []selection, ref []float64, k int) error {
	if len(ref) <= k {
		return errors.New("probe: reference has too few answers")
	}
	top := append([]float64(nil), ref...)
	sort.Sort(sort.Reverse(sort.Float64Slice(top)))
	got := make([]float64, len(sels))
	for i, s := range sels {
		got[i] = ref[s.Index]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(got)))
	for i := range got {
		if got[i] != top[i] {
			return fmt.Errorf("probe: rank %d selected true count %g, the reference's is %g", i, got[i], top[i])
		}
		if want := top[i] - top[i+1]; math.Abs(sels[i].Gap-want) > 0.5 {
			return fmt.Errorf("probe: rank %d gap %g, true gap %g", i, sels[i].Gap, want)
		}
	}
	return nil
}
