package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
)

// Workload names.
const (
	Mechanisms    = "mechanisms"
	ScanCold      = "scan-cold"
	IngestMonitor = "ingest-monitor"
)

// Names lists the workloads in the order the benchmark documents them.
var Names = []string{Mechanisms, ScanCold, IngestMonitor}

// Op classes. The query classes are the mechanism endpoints (and batch);
// every other class is a non-query op.
const (
	ClassTopK         = "topk"
	ClassSVT          = "svt"
	ClassMax          = "max"
	ClassPipelineTopK = "pipeline_topk"
	ClassPipelineSVT  = "pipeline_svt"
	ClassBatch        = "batch"
	ClassAppend       = "append"
	ClassPoll         = "poll"
)

// QueryClasses lists the query op classes.
var QueryClasses = []string{ClassTopK, ClassSVT, ClassMax, ClassPipelineTopK, ClassPipelineSVT, ClassBatch}

// Budget is every tenant's ε budget: far above what any run spends, so no
// tenant runs out.
const Budget = 1e12

// ProbeEpsilon is the ε of exactness probes: the noise scale is ~1e-3, so
// the selection equals the true top-k and each gap is within 0.5 of the
// true one.
const ProbeEpsilon = 1e4

// AppendRecords is the number of records one append op carries.
const AppendRecords = 32

// Input is one generated file: a dataset the benchmark uploads, or a pool
// of records it appends to a dataset in AppendRecords-sized slices.
type Input struct {
	// Name is the catalog name (or the pool's name).
	Name string
	// Kind and Scale are cmd/datagen's -dataset and -scale.
	Kind  string
	Scale int
	// SeedOffset is added to the run's seed to give datagen's -seed.
	SeedOffset uint64
	// PoolFor names the dataset the pool's records are appended to; empty
	// for an uploaded dataset.
	PoolFor string
}

// Inputs lists the generated files of a workload, uploaded datasets first
// in upload order.
func Inputs(workload string) ([]Input, error) {
	side := []Input{
		{Name: "side", Kind: "bmspos", Scale: 64, SeedOffset: 11},
		{Name: "side.pool", Kind: "bmspos", Scale: 16, SeedOffset: 12, PoolFor: "side"},
	}
	switch workload {
	case Mechanisms:
		return append([]Input{{Name: "kosarak", Kind: "kosarak", Scale: 1}}, side...), nil
	case ScanCold:
		return append([]Input{
			{Name: "t40", Kind: "quest", Scale: 1},
			{Name: "bmspos", Kind: "bmspos", Scale: 1, SeedOffset: 1},
		}, side...), nil
	case IngestMonitor:
		return []Input{
			{Name: "pos-a", Kind: "bmspos", Scale: 2},
			{Name: "pos-b", Kind: "bmspos", Scale: 2, SeedOffset: 1},
			{Name: "pos-a.pool", Kind: "bmspos", Scale: 4, SeedOffset: 2, PoolFor: "pos-a"},
			{Name: "pos-b.pool", Kind: "bmspos", Scale: 4, SeedOffset: 3, PoolFor: "pos-b"},
		}, nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q (valid: %v)", workload, Names)
}

// Plan is one run's seeded input: what to set up and the op stream to send.
type Plan struct {
	// Datasets are the uploaded dataset names in upload order.
	Datasets []string
	// Monitors are created after the uploads, in order; monitor i gets the
	// server id "m<i+1>".
	Monitors []Monitor
	// Ops is the whole stream; the first Warmup ops are the untimed warm-up.
	Ops    []Op
	Warmup int
	// Fixed reports that every op runs (the op count ends the run); else
	// the measured phase ends when the run's time is up.
	Fixed bool
}

// Op is one request of the stream.
type Op struct {
	Class  string
	Method string
	Path   string
	Body   []byte
	// Tenant pays for the op's charges (or is polled).
	Tenant string
	// Dataset is an append's target.
	Dataset string
	// Reqs are the mechanism requests: one, or a batch's items.
	Reqs []Req
	// Delta is an append's records.
	Delta [][]int32
	// Probe marks a high-ε exactness probe.
	Probe bool
}

// Query reports whether the op is a DP query (a mechanism or batch call).
func (o *Op) Query() bool { return o.Class != ClassAppend && o.Class != ClassPoll }

// Cost is the ε the op charges on success.
func (o *Op) Cost() float64 {
	c := 0.0
	for _, r := range o.Reqs {
		c += r.Epsilon
	}
	return c
}

// Req is one mechanism request and what its answer must satisfy.
type Req struct {
	// Mechanism is the registry name: topk, svt, max, pipeline/topk or
	// pipeline/svt.
	Mechanism string
	Epsilon   float64
	K         int
	Threshold float64
	Adaptive  bool
	// Dataset and Spec name resolved answers; Answers holds inline ones.
	Dataset string
	Spec    *Spec
	Answers []float64
}

// Class is the op class of a single request of this mechanism.
func (r *Req) Class() string {
	switch r.Mechanism {
	case "pipeline/topk":
		return ClassPipelineTopK
	case "pipeline/svt":
		return ClassPipelineSVT
	}
	return r.Mechanism
}

// reqJSON is the wire form of every mechanism request the benchmark sends.
type reqJSON struct {
	Tenant    string    `json:"tenant,omitempty"`
	Epsilon   float64   `json:"epsilon"`
	Answers   []float64 `json:"answers,omitempty"`
	Monotonic bool      `json:"monotonic,omitempty"`
	Dataset   string    `json:"dataset,omitempty"`
	Queries   *Spec     `json:"queries,omitempty"`
	K         int       `json:"k,omitempty"`
	Threshold float64   `json:"threshold,omitempty"`
	Adaptive  bool      `json:"adaptive,omitempty"`
}

func (r *Req) wire(tenant string) reqJSON {
	return reqJSON{
		Tenant: tenant, Epsilon: r.Epsilon, Answers: r.Answers, Monotonic: r.Answers != nil,
		Dataset: r.Dataset, Queries: r.Spec, K: r.K, Threshold: r.Threshold, Adaptive: r.Adaptive,
	}
}

// Monitor is one SVT threshold monitor the set-up registers.
type Monitor struct {
	Tenant     string  `json:"tenant"`
	Dataset    string  `json:"dataset"`
	Item       int32   `json:"item"`
	Threshold  float64 `json:"threshold"`
	Epsilon    float64 `json:"epsilon"`
	MaxAnswers int     `json:"max_answers"`
	Adaptive   bool    `json:"adaptive,omitempty"`
	Seed       uint64  `json:"seed"`
	// Subscribe marks the one monitor whose SSE stream the driver reads.
	Subscribe bool `json:"-"`
}

// Body is the monitor's POST /v1/monitors body.
func (m *Monitor) Body() []byte { return mustJSON(m) }

// UploadBody is the POST /v1/datasets body for a FIMI upload.
func UploadBody(name string, fimi []byte) []byte {
	return mustJSON(struct {
		Name string `json:"name"`
		FIMI string `json:"fimi"`
	}{name, string(fimi)})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value encoded here is finite and plain
	}
	return b
}

// Rates size the op streams. A time-bounded workload's stream holds more
// ops than the run can send at maxRate; ingest-monitor's fixed op count is
// chosen so that a run at the measured rate takes about the run's seconds.
const (
	mechanismsMaxRate = 4000
	scanColdMaxRate   = 2000
	ingestOpsPerSec   = 500
)

// Build generates a workload's plan from the run's seed. data holds every
// input of Inputs(workload) by name, as generated; the stream depends only
// on the seed, the data and seconds.
func Build(workload string, seed uint64, seconds int, data map[string]*Data) (*Plan, error) {
	inputs, err := Inputs(workload)
	if err != nil {
		return nil, err
	}
	g := &gen{
		r:     rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		p:     &Plan{},
		info:  map[string]*dsInfo{},
		pools: map[string]*pool{},
		seen:  map[string]bool{},
	}
	for _, in := range inputs {
		d, ok := data[in.Name]
		if !ok || len(d.Records) == 0 {
			return nil, fmt.Errorf("workload: input %q missing or empty", in.Name)
		}
		if in.PoolFor != "" {
			g.pools[in.PoolFor] = &pool{recs: d.Records}
			continue
		}
		g.p.Datasets = append(g.p.Datasets, in.Name)
		g.info[in.Name] = newDSInfo(d.Records)
	}
	switch workload {
	case Mechanisms:
		g.mechanisms(seconds)
	case ScanCold:
		g.scanCold(seconds)
	case IngestMonitor:
		g.ingestMonitor(seconds)
	}
	for i := range g.p.Monitors {
		g.p.Monitors[i].Seed = seed*1000 + uint64(i) + 1
	}
	return g.p, nil
}

// dsInfo is what the generator knows about an uploaded dataset.
type dsInfo struct {
	records  int
	universe int
	counts   []float64
	rank     []int32 // item ids by descending count
	lenQ50   int
	lenQ99   int
	lenQ999  int
	lenQ9999 int
}

func newDSInfo(records [][]int32) *dsInfo {
	u := Universe(records)
	c := Counts(records, u)
	return &dsInfo{
		records: len(records), universe: u, counts: c, rank: ranked(c),
		lenQ50: lengthQuantile(records, 0.5), lenQ99: lengthQuantile(records, 0.99),
		lenQ999: lengthQuantile(records, 0.999), lenQ9999: lengthQuantile(records, 0.9999),
	}
}

type pool struct {
	recs [][]int32
	next int
}

// take returns the pool's next n records, wrapping around at its end.
func (p *pool) take(n int) [][]int32 {
	out := make([][]int32, n)
	for i := range out {
		out[i] = p.recs[p.next]
		p.next = (p.next + 1) % len(p.recs)
	}
	return out
}

type gen struct {
	r       *rand.Rand
	p       *Plan
	tenants []string
	zipf    *rand.Zipf
	info    map[string]*dsInfo
	pools   map[string]*pool
	// seen and charged track the tenants charged so far, so a budget poll
	// never names a tenant the server has not provisioned yet.
	seen    map[string]bool
	charged []string
	queries int
}

func (g *gen) setTenants(n int) {
	g.tenants = make([]string, n)
	for i := range g.tenants {
		g.tenants[i] = fmt.Sprintf("t%02d", i)
	}
	g.zipf = rand.NewZipf(g.r, 1.2, 1, uint64(n-1))
}

func (g *gen) tenant() string { return g.tenants[g.zipf.Uint64()] }

// probe counts one query op and reports whether it is an exactness probe:
// every 16th query is.
func (g *gen) probe() bool {
	g.queries++
	return g.queries%16 == 0
}

func (g *gen) add(op Op) {
	if len(op.Reqs) > 0 && !g.seen[op.Tenant] {
		g.seen[op.Tenant] = true
		g.charged = append(g.charged, op.Tenant)
	}
	g.p.Ops = append(g.p.Ops, op)
}

func (g *gen) single(req Req) {
	t := g.tenant()
	g.add(Op{
		Class: req.Class(), Method: "POST", Path: "/v1/" + req.Mechanism,
		Body: mustJSON(req.wire(t)), Tenant: t, Reqs: []Req{req}, Probe: req.Epsilon == ProbeEpsilon,
	})
}

func (g *gen) batch(reqs []Req) {
	t := g.tenant()
	type item struct {
		Mechanism string  `json:"mechanism"`
		Request   reqJSON `json:"request"`
	}
	items := make([]item, len(reqs))
	for i := range reqs {
		items[i] = item{reqs[i].Mechanism, reqs[i].wire("")}
	}
	body := mustJSON(struct {
		Tenant   string `json:"tenant"`
		Requests []item `json:"requests"`
	}{t, items})
	g.add(Op{Class: ClassBatch, Method: "POST", Path: "/v1/batch", Body: body, Tenant: t, Reqs: reqs})
}

func (g *gen) poll() {
	if len(g.charged) == 0 {
		return
	}
	t := g.tenant()
	if !g.seen[t] {
		t = g.charged[0]
	}
	g.add(Op{Class: ClassPoll, Method: "GET", Path: "/v1/tenants/" + t + "/budget", Tenant: t})
}

func (g *gen) appendTo(dataset string) {
	delta := g.pools[dataset].take(AppendRecords)
	body := mustJSON(struct {
		FIMI string `json:"fimi"`
	}{string(FIMI(delta))})
	g.add(Op{Class: ClassAppend, Method: "POST", Path: "/v1/datasets/" + dataset + "/append",
		Body: body, Dataset: dataset, Delta: delta})
}

// deck deals indices in proportion to weights: every round of sum(weights)
// draws holds index k exactly weights[k] times, in a seeded order. Dealing
// from decks rather than drawing independently gives every run the same
// op mix whatever its seed, so a run's figures do not move with the mix.
type deck struct {
	weights []int
	cards   []int
}

func (g *gen) deal(d *deck) int {
	if len(d.cards) == 0 {
		for k, w := range d.weights {
			for i := 0; i < w; i++ {
				d.cards = append(d.cards, k)
			}
		}
		g.r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[len(d.cards)-1]
	d.cards = d.cards[:len(d.cards)-1]
	return c
}

// items draws n distinct item ids below universe.
func (g *gen) items(n, universe int) []int32 {
	seen := map[int32]bool{}
	out := make([]int32, 0, n)
	for len(out) < n {
		it := int32(g.r.IntN(universe))
		if !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	return out
}

// popular draws one of the n most counted items of d.
func (g *gen) popular(d *dsInfo, n int) int32 { return d.rank[g.r.IntN(min(n, len(d.rank)))] }

// rankCount is the count of d's item at the given rank.
func rankCount(d *dsInfo, rank int) float64 { return d.counts[d.rank[min(rank, len(d.rank)-1)]] }

func all() *Spec { return &Spec{Kind: KindAllItems} }

func itemCount(items []int32) *Spec { return &Spec{Kind: KindItemCount, Items: items} }

func filter(contains []int32, minLen, maxLen int) *Spec {
	return &Spec{Kind: KindFilter, Where: &Where{Contains: contains, MinLen: minLen, MaxLen: maxLen}}
}

// sideMonitors watches the small side dataset that carries the light ingest
// stream of the query-heavy workloads: an adaptive monitor the driver
// subscribes to, set to cross about halfway through a run, and a plain one
// that crosses early and retires.
func (g *gen) sideMonitors(expectedAppends int) {
	d := g.info["side"]
	growth := func(rank int) float64 {
		return rankCount(d, rank) / float64(d.records) * AppendRecords * float64(expectedAppends)
	}
	g.p.Monitors = append(g.p.Monitors,
		Monitor{Tenant: "mon", Dataset: "side", Item: d.rank[0], Threshold: rankCount(d, 0) + growth(0)/2,
			Epsilon: 1, MaxAnswers: 100000, Adaptive: true, Subscribe: true},
		Monitor{Tenant: "mon", Dataset: "side", Item: d.rank[1], Threshold: rankCount(d, 1) + growth(1)/4,
			Epsilon: 1, MaxAnswers: 1},
	)
}

// mechanisms is the paper's own setting: Noisy-Top-K and Adaptive-SVT with
// Gap over a Kosarak-shaped dataset's 41k counting queries.
func (g *gen) mechanisms(seconds int) {
	g.setTenants(64)
	d := g.info["kosarak"]
	svtThreshold := rankCount(d, 50)
	hot := []*Spec{
		filter([]int32{d.rank[0]}, 0, 0),
		filter([]int32{d.rank[1]}, 0, 0),
		filter(nil, d.lenQ99, 0),
		filter(nil, 0, 2),
		filter([]int32{d.rank[2]}, 5, 0),
		{Kind: KindUnion, Of: []*Spec{filter([]int32{d.rank[3]}, 0, 0), filter([]int32{d.rank[4]}, 0, 0)}},
	}
	inline := make([][]float64, 8)
	for i := range inline {
		v := make([]float64, 4096)
		for j := range v {
			v[j] = math.Floor(1e5/math.Pow(float64(g.r.IntN(4096)+1), 1.1)) + float64(g.r.IntN(50))
		}
		inline[i] = v
	}
	n := mechanismsMaxRate*seconds + 200
	g.p.Warmup = 200
	g.sideMonitors(n / 22 / 4)
	kinds := &deck{weights: []int{4, 3, 2, 2, 2, 2, 2, 2, 2, 1}}
	for len(g.p.Ops) < n {
		c := g.deal(kinds)
		if c < 8 && g.probe() {
			g.mechanismsProbe(hot, inline)
			continue
		}
		switch c {
		case 0:
			g.single(Req{Mechanism: "topk", Epsilon: 1, K: 10, Dataset: "kosarak", Spec: all()})
		case 1:
			g.single(Req{Mechanism: "svt", Epsilon: 1, K: 10, Threshold: svtThreshold, Adaptive: true,
				Dataset: "kosarak", Spec: all()})
		case 2:
			g.single(Req{Mechanism: "pipeline/topk", Epsilon: 1, K: 10, Dataset: "kosarak", Spec: all()})
		case 3:
			g.single(Req{Mechanism: "pipeline/svt", Epsilon: 1, K: 10, Threshold: svtThreshold, Adaptive: true,
				Dataset: "kosarak", Spec: all()})
		case 4:
			g.single(Req{Mechanism: "max", Epsilon: 0.5, Dataset: "kosarak", Spec: itemCount(g.items(64, d.universe))})
		case 5:
			g.batch([]Req{
				{Mechanism: "topk", Epsilon: 0.5, K: 10, Dataset: "kosarak", Spec: all()},
				{Mechanism: "max", Epsilon: 0.25, Dataset: "kosarak", Spec: itemCount(g.items(64, d.universe))},
				{Mechanism: "svt", Epsilon: 0.5, K: 4, Threshold: svtThreshold, Adaptive: true,
					Dataset: "kosarak", Spec: itemCount(g.items(64, d.universe))},
				{Mechanism: "pipeline/topk", Epsilon: 0.5, K: 5, Dataset: "kosarak", Spec: itemCount(g.items(64, d.universe))},
			})
		case 6:
			g.single(Req{Mechanism: "topk", Epsilon: 1, K: 10, Answers: inline[g.r.IntN(len(inline))]})
		case 7:
			g.single(Req{Mechanism: "topk", Epsilon: 1, K: 10, Dataset: "kosarak", Spec: hot[g.r.IntN(len(hot))]})
		case 8:
			g.poll()
		case 9:
			g.appendTo("side")
		}
	}
}

// mechanismsProbe sends a high-ε top-k over all items, a hot filter or an
// inline vector, in rotation.
func (g *gen) mechanismsProbe(hot []*Spec, inline [][]float64) {
	req := Req{Mechanism: "topk", Epsilon: ProbeEpsilon, K: 10, Dataset: "kosarak"}
	switch (g.queries / 16) % 3 {
	case 0:
		req.Spec = all()
	case 1:
		req.Spec = hot[g.r.IntN(len(hot))]
	default:
		req.Dataset, req.Answers = "", inline[g.r.IntN(len(inline))]
	}
	g.single(req)
}

// coldSpec draws a monotone composite spec from a space far larger than the
// server's 256-entry plan cache, mixing length-tail filters the zone
// sketches can skip with item filters they cannot.
func (g *gen) coldSpec(d *dsInfo, kinds *deck) *Spec {
	// Tail lengths come from upper quantiles, not the maximum, so how many
	// blocks a tail filter skips does not hinge on one outlier record.
	tail := func() int { return d.lenQ999 + g.r.IntN(2*(d.lenQ9999-d.lenQ999)+2) }
	item := func() int32 { return g.popular(d, 400) }
	switch g.deal(kinds) {
	case 0:
		return filter([]int32{item()}, 0, 0)
	case 1:
		return filter([]int32{item()}, tail(), 0)
	case 2:
		return filter([]int32{item()}, 0, 1+g.r.IntN(d.lenQ50))
	case 3:
		return filter([]int32{item(), item()}, 0, 0)
	case 4:
		return &Spec{Kind: KindUnion, Of: []*Spec{filter([]int32{item()}, 0, 0), filter(nil, tail(), 0)}}
	case 5:
		return &Spec{Kind: KindIntersect, Of: []*Spec{filter([]int32{item()}, 0, 0), filter(nil, d.lenQ50+g.r.IntN(8), 0)}}
	default:
		return &Spec{Kind: KindThreshold, MinCount: float64(1 + g.r.IntN(50)), Of: []*Spec{filter([]int32{item()}, 0, 0)}}
	}
}

// scanCold makes nearly every request compile and scan: fresh composite
// specs over a T40I10D100K-shaped and a BMS-POS-shaped dataset.
func (g *gen) scanCold(seconds int) {
	g.setTenants(8)
	names := []string{"t40", "bmspos"}
	hot := map[string][]*Spec{}
	for _, name := range names {
		d := g.info[name]
		hot[name] = []*Spec{filter([]int32{d.rank[0]}, 0, 0), filter(nil, d.lenQ99, 0), filter([]int32{d.rank[1]}, 0, d.lenQ50)}
	}
	n := scanColdMaxRate*seconds + 50
	g.p.Warmup = 50
	g.sideMonitors(n / 17 / 8)
	var (
		datasets = &deck{weights: []int{1, 1}}
		hotness  = &deck{weights: []int{15, 1}}
		specs    = &deck{weights: []int{1, 1, 1, 1, 1, 1, 1}}
		kinds    = &deck{weights: []int{4, 2, 2, 1, 1, 1, 1, 1, 1}}
	)
	for len(g.p.Ops) < n {
		name := names[g.deal(datasets)]
		d := g.info[name]
		spec := g.coldSpec(d, specs)
		if g.deal(hotness) == 1 {
			spec = hot[name][g.r.IntN(len(hot[name]))]
		}
		thr := math.Max(1, math.Floor(0.02*float64(d.records)))
		c := g.deal(kinds)
		if c < 7 && g.probe() {
			g.single(Req{Mechanism: "topk", Epsilon: ProbeEpsilon, K: 5, Dataset: name, Spec: spec})
			continue
		}
		switch c {
		case 0:
			g.single(Req{Mechanism: "topk", Epsilon: 1, K: 5, Dataset: name, Spec: spec})
		case 1:
			g.single(Req{Mechanism: "svt", Epsilon: 1, K: 5, Threshold: thr, Adaptive: true, Dataset: name, Spec: spec})
		case 2:
			g.single(Req{Mechanism: "max", Epsilon: 0.5, Dataset: name, Spec: spec})
		case 3:
			g.single(Req{Mechanism: "pipeline/topk", Epsilon: 1, K: 5, Dataset: name, Spec: spec})
		case 4:
			g.single(Req{Mechanism: "pipeline/svt", Epsilon: 1, K: 5, Threshold: thr, Dataset: name, Spec: spec})
		case 5:
			g.batch([]Req{
				{Mechanism: "topk", Epsilon: 0.5, K: 5, Dataset: name, Spec: spec},
				{Mechanism: "max", Epsilon: 0.5, Dataset: name, Spec: g.coldSpec(d, specs)},
			})
		case 6:
			g.single(Req{Mechanism: "max", Epsilon: 0.5, Dataset: name, Spec: itemCount(g.items(32, d.universe))})
		case 7:
			g.poll()
		case 8:
			g.appendTo("side")
		}
	}
}

// ingestMonitor interleaves appends to two BMS-POS-shaped datasets, each
// watched by eight monitors, with resolved queries on the same datasets.
func (g *gen) ingestMonitor(seconds int) {
	g.setTenants(8)
	names := []string{"pos-a", "pos-b"}
	n := ingestOpsPerSec*seconds + 100
	g.p.Warmup, g.p.Fixed = 100, true
	appendsPerDataset := n * 4 / 15 / 2
	fractions := []float64{0.1, 0.3, 0.6, 1.0, 1.5, 2.5, 4, 8}
	hot := map[string][]*Spec{}
	for _, name := range names {
		d := g.info[name]
		for j, f := range fractions {
			growth := rankCount(d, j) / float64(d.records) * AppendRecords * float64(appendsPerDataset)
			maxAnswers := 100000
			if j%4 == 0 {
				maxAnswers = 1
			}
			g.p.Monitors = append(g.p.Monitors, Monitor{
				Tenant: "mon", Dataset: name, Item: d.rank[j], Threshold: math.Floor(rankCount(d, j) + growth*f),
				Epsilon: 1, MaxAnswers: maxAnswers, Adaptive: j%2 == 0, Subscribe: name == "pos-a" && j == 3,
			})
		}
		hot[name] = []*Spec{filter([]int32{d.rank[0]}, 0, 0), filter(nil, d.lenQ99, 0), filter([]int32{d.rank[2]}, 3, 0)}
	}
	next := 0
	datasets := &deck{weights: []int{1, 1}}
	kinds := &deck{weights: []int{4, 2, 2, 1, 1, 1, 1, 1, 2}}
	for len(g.p.Ops) < n {
		name := names[g.deal(datasets)]
		d := g.info[name]
		thr := rankCount(d, 20)
		c := g.deal(kinds)
		if c > 0 && c < 8 && g.probe() {
			spec := all()
			if c == 2 {
				spec = hot[name][g.r.IntN(len(hot[name]))]
			}
			g.single(Req{Mechanism: "topk", Epsilon: ProbeEpsilon, K: 10, Dataset: name, Spec: spec})
			continue
		}
		switch c {
		case 0:
			g.appendTo(names[next])
			next = 1 - next
		case 1:
			g.single(Req{Mechanism: "topk", Epsilon: 1, K: 10, Dataset: name, Spec: all()})
		case 2:
			g.single(Req{Mechanism: "topk", Epsilon: 1, K: 10, Dataset: name, Spec: hot[name][g.r.IntN(len(hot[name]))]})
		case 3:
			g.single(Req{Mechanism: "svt", Epsilon: 1, K: 10, Threshold: thr, Adaptive: true, Dataset: name, Spec: all()})
		case 4:
			g.single(Req{Mechanism: "max", Epsilon: 0.5, Dataset: name, Spec: itemCount(g.items(32, d.universe))})
		case 5:
			g.single(Req{Mechanism: "pipeline/topk", Epsilon: 1, K: 10, Dataset: name, Spec: all()})
		case 6:
			g.single(Req{Mechanism: "pipeline/svt", Epsilon: 1, K: 10, Threshold: thr, Dataset: name, Spec: all()})
		case 7:
			g.batch([]Req{
				{Mechanism: "topk", Epsilon: 0.5, K: 10, Dataset: name, Spec: all()},
				{Mechanism: "max", Epsilon: 0.25, Dataset: name, Spec: itemCount(g.items(32, d.universe))},
				{Mechanism: "svt", Epsilon: 0.5, K: 4, Threshold: thr, Dataset: name, Spec: all()},
				{Mechanism: "pipeline/topk", Epsilon: 0.5, K: 5, Dataset: name, Spec: hot[name][0]},
			})
		case 8:
			g.poll()
		}
	}
}

// MonitorID is the server id of the plan's i-th monitor.
func MonitorID(i int) string { return "m" + strconv.Itoa(i+1) }
