// Package freegap is a Go implementation of the differentially private
// selection mechanisms from "Free Gap Information from the Differentially
// Private Sparse Vector and Noisy Max Mechanisms" (Ding, Wang, Zhang, Kifer —
// VLDB 2019), together with the classical mechanisms they improve on and the
// post-processing estimators that exploit the released gap information.
//
// The headline results reproduced by this library:
//
//   - Noisy-Top-K-with-Gap: select the (approximate) top-k queries and also
//     learn, for free, the noisy gap between each selected query and the next
//     best one. Combining those gaps with fresh measurements cuts the mean
//     squared error of the measurements by up to 50% for counting queries.
//
//   - Adaptive-Sparse-Vector-with-Gap: answer "which queries exceed this
//     threshold?" while paying less privacy budget for queries that clear the
//     threshold by a wide margin, so many more above-threshold queries fit in
//     the same budget — and every positive answer also carries a free noisy
//     gap above the threshold with a Lemma 5 confidence bound.
//
// The top-level package is a facade over the implementation packages under
// internal/: mechanisms (internal/core, internal/baseline), noise and datasets
// (internal/rng, internal/dataset), estimators (internal/postprocess), the
// empirical privacy audit (internal/validate) and the experiment harness that
// regenerates every figure in the paper (internal/experiment, driven by
// cmd/dpbench and the benchmarks in bench_test.go).
//
// # Quick start
//
//	src := freegap.NewSource(42)
//	counts := []float64{812, 641, 633, 601, 425, 124, 77, 8}
//	topk, _ := freegap.NewTopKWithGap(3, 1.0, true) // k=3, ε=1, counting queries
//	res, _ := topk.Run(src, counts)
//	for _, s := range res.Selections {
//	    fmt.Printf("query %d beats the runner-up by ≈%.1f\n", s.Index, s.Gap)
//	}
//
// See the examples/ directory for complete programs.
//
// # Engine
//
// Every servable workload sits behind one interface, Mechanism, with five
// methods: Name, NewRequest, Validate, Cost and Execute. DefaultMechanisms
// returns the fixed MechanismRegistry the server and CLIs dispatch on,
// holding the three raw free-gap mechanisms ("topk", "max", "svt") and the
// paper's two end-to-end workflows ("pipeline/topk" — Section 5.2 select,
// measure, BLUE-refine; and "pipeline/svt" — Section 6.2 select, measure,
// combine with Lemma 5 bounds). The contract keeps budget handling sound
// everywhere the engine is used: Validate rejects anything that cannot run
// (so a rejected request never burns budget), Cost returns the ε to reserve
// before execution, and Execute draws all randomness from a caller-supplied
// Source. Running a mechanism directly:
//
//	mech, _ := freegap.DefaultMechanisms().Get("pipeline/topk")
//	req := &freegap.PipelineTopKRequest{
//	    Common: freegap.RequestCommon{Tenant: "me", Epsilon: 1, Answers: counts, Monotonic: true},
//	    K:      3,
//	}
//	if err := mech.Validate(req, freegap.MechanismLimits{}); err != nil { ... }
//	resp, _ := mech.Execute(freegap.NewSource(42), req, nil)
//
// The set is closed: the server serves these five mechanisms, and their
// requests and responses go through one hand-rolled codec.
//
// # Serving
//
// The library also ships as a long-lived, multi-tenant query service. The
// cmd/dpserver binary mounts one endpoint per built-in mechanism — POST
// /v1/topk, /v1/svt, /v1/max, /v1/pipeline/topk and /v1/pipeline/svt — with
// each tenant drawing from its own privacy budget (tracked by an Accountant
// created on first use) and receiving a structured 402 budget_exhausted
// error once it is spent. POST /v1/batch executes up to MaxBatch requests in
// one round trip under a single atomic multi-charge: either every item's ε
// is reserved or none is, so a batch can never overspend what the same
// requests issued serially could. Embed the same service in a larger program
// via the facade's server constructors:
//
//	srv, _ := freegap.NewServer(freegap.ServerConfig{TenantBudget: 10})
//	http.ListenAndServe(":8080", srv.Handler())
//
// examples/remoteclient drives the full API end-to-end, and
// GET /v1/tenants/{id}/budget (budget ledger with per-mechanism breakdown),
// /healthz and /metrics cover operations.
//
// # Datasets
//
// Mechanism requests carry their query answers in one of two trust models.
// With inline answers the client holds the data, computes the true counts
// itself, and ships them in the request — convenient, but the opposite of
// the paper's setting. With dataset-backed queries the server is the
// curator: it holds the transaction database (the DatasetStore catalog) and
// answers sensitivity-1 counting queries under DP, so raw data never leaves
// it. A request then names a catalogued dataset and a QuerySpec in place of
// answers:
//
//	{"tenant": "acme", "k": 3, "epsilon": 1.0,
//	 "dataset": "shop", "queries": {"kind": "all_items"}}
//
// QueryAllItems asks for every item's count — the paper's Section 7
// workload — and QueryItemCount for an explicit item list. The server
// decides whether resolved queries are monotone (a request's Monotonic flag
// is ignored for dataset-backed answers); counting queries are, and get the
// halved noise scale.
// Datasets enter the catalog through POST /v1/datasets (a FIMI-format upload
// or a synthetic generator spec), ServerConfig.Preload, or cmd/dpserver's
// -preload/-preload-synthetic flags. An upload is parsed as it streams in:
// the fimi string is unescaped from the request body straight into the FIMI
// parser, so the payload never exists in memory as text and an upload's
// memory is bounded by its parsed records (one full-size Kosarak-shaped
// upload peaks at 48 MB of server RSS, where decoding the whole body first
// reached 178–180 MB). Registration precomputes the dataset's
// item-count vector exactly once; every resolved request — including
// dataset-backed batch items and pipeline runs — is served from that cached
// read-only vector, never by rescanning transactions (GET /v1/datasets/{name}
// exposes the resolutions and count_scans counters that prove it). Unknown
// names yield a 404 with code "unknown_dataset", malformed dataset/spec
// combinations a 400 with code "bad_query_spec". Direct engine users get the
// same resolution step via ResolveMechanismRequest with any QueryResolver.
//
// # Queries
//
// QuerySpec is a composable algebra, not just the two leaf kinds: QueryFilter
// counts over records matching a RecordPredicate (contains + length bounds),
// QueryThreshold keeps counts inside a [min_count, max_count] range,
// QueryUnion/QueryIntersect/QueryMinus combine operand count vectors
// elementwise, and QueryJoin masks by another catalogued dataset's item
// support. Specs nest up to 8 levels and 64 nodes; anything deeper, wider or
// malformed fails QuerySpec.Validate with ErrBadQuerySpec (HTTP 400
// "bad_query_spec").
//
// Composite specs are compiled by the statistics-free planner in
// internal/query/plan: the spec is canonicalized (operand order, duplicates
// and provably-empty subtrees all normalize away) and the canonical form
// keys a compiled-plan cache owned by the dataset's current data generation,
// so a repeated spec reuses its materialized count vector without touching
// the transactions. Lookup, evaluation and fill go through one pinned
// generation, which stamps each cached vector with its record count. An
// append seeds the new generation's cache with the previous one's entries,
// but a lookup hits only an entry stamped with the current record count, so
// a carried vector is never served as an answer; instead, since datasets
// only grow, a filter vector stamped with M records is copied into the grown
// item universe and extended by scanning only the records after M (a
// plan-cache miss that leaves count_scans unchanged). Plans containing a
// join are not cached. Cache misses evaluate vectorized passes in greedy
// cheapest-first order; filter scans read the dataset's flat storage blocks,
// skip whole blocks whose zone sketch (per-block length range, built at
// registration and kept in the arena) misses the length bounds, and walk
// exact item postings for `contains`: in each full block only the records
// on the rarest item's list, and none of a block where an item's list is
// empty. An item's postings are built by the first scan that names it and
// extended over the blocks appends seal; registration and appends build
// none, and the postings take O(occurrences of the items queried). A
// length-only filter (no `contains`) adds the rows of its length range from
// the dataset's record-length count table (per record length and item, the
// records of that length holding the item) and scans only the blocks after
// the table, normally the partial tail. The first such filter tallies the
// full blocks into the table, later ones extend it over the blocks appends
// seal, and it is built only while it holds no more counters than the item
// occurrences it covers. Appending ?explain=1 to a mechanism endpoint
// returns the compiled plan, uncharged.
// Specs in the monotone fragment (all_items, item_count, filter, union,
// intersect) have sensitivity 1 and keep the halved noise scale. threshold,
// minus and join are served at the standard scale for sensitivity 1, but one
// record can move a threshold output by max(min_count, max_count) and a minus
// or join output by an unbounded, data-dependent amount, so their releases
// do not meet the ε they are charged (see ROADMAP.md's first open item).
//
// # Persistence
//
// A restart of an in-memory server refunds every tenant's spent ε — a
// privacy-accounting bug, not just an operational gap. Opening a PersistLog
// on a state directory and handing it to ServerConfig.Persist makes the
// privacy-critical state durable:
//
//	lg, _ := freegap.OpenPersist("/var/lib/dpserver", freegap.PersistOptions{})
//	srv, _ := freegap.NewServer(freegap.ServerConfig{TenantBudget: 10, Persist: lg})
//
// Every admitted charge batch is journalled to an append-only JSON-lines WAL
// through a hook on the accountant's commit path — an entry is written iff
// the charge committed, and a batch's atomic multi-charge is one record, so
// the all-or-nothing semantics survive a crash mid-batch. Dataset
// registrations are journalled alongside (uploads as FIMI blobs holding the
// uploaded text, teed to a temp file as the upload is parsed and committed
// before the WAL record; synthetic datasets as their deterministic
// generator spec). The WAL is periodically
// compacted into an atomically installed snapshot; generation numbers on
// both make the compaction itself crash-safe. On startup the log replays
// snapshot + WAL, truncating a torn final write to the last complete record,
// and the server resumes with the exact spent-budget state (per-mechanism
// breakdown included) and a rebuilt dataset catalog whose item counts are
// recomputed exactly once.
//
// Durability modes (PersistOptions.Fsync, cmd/dpserver -fsync): FsyncBatch
// (default) appends to an in-memory buffer drained by a background flusher
// with grouped fsync, keeping charges off the disk's critical path — the
// persisted hot path stays within a few percent of the in-memory baseline;
// FsyncAlways syncs inside every charge; FsyncOff leaves durability to the
// OS. Shutdown/Close flush, compact and close the log. cmd/dpserver enables
// all of this with -state-dir.
//
// The accountant fails closed: the state directory is flock'ed (on Unix
// platforms; elsewhere single-instance use is the operator's
// responsibility) against a second concurrent process (which would
// double-spend every budget), and a
// WAL I/O failure marks the log dead — budget-mutating requests are then
// refused with 503 (healthz reports status "degraded" and metrics raise
// freegap_persist_failed) instead of admitting charges a restart would
// refund.
//
// # Concurrency
//
// The serving hot path allocates no per-request buffers and runs no scalar
// noise loops. Shared state takes the simplest synchronisation: each
// tenant's accountant guards its spent total, audit log, per-mechanism
// aggregation and durability journal with one mutex, so a charge is
// journalled iff it is admitted and every budget view agrees; the tenant
// registry is one RWMutex over one map, with the provisioning cap checked
// under the write lock; telemetry counters and gauges are single atomic
// words. The dataset catalog publishes an immutable map through an atomic
// pointer (copy-and-swap on registration), so dataset-backed requests
// resolve without taking any lock; appends swap a new per-dataset
// generation through the same RCU discipline, so a resolved view stays
// internally consistent for as long as it is held.
//
// Mechanism executions draw request-scoped working memory — noise and score
// buffers plus the responses' variable-length arrays — from a pooled
// MechanismScratch threaded through the generic pipeline, and fill their
// noise in vectorized passes (LaplaceVec and friends; Sparse Vector
// prefills its top-branch noise in chunks). Passing a nil scratch to
// Mechanism.Execute remains correct, just unpooled. A response built from a
// scratch aliases its buffers: encode it before reusing the scratch.
//
// Noisy-Top-K-with-Gap (topk, max, pipeline/topk and their batch items)
// samples Laplace noise lazily over 1,024 or more answers: it finds the
// (k+1)-th largest answer c, draws full noise only for answers within 18
// noise scales b of it, picks the few farther answers whose noise carries
// them above the level L = c − 8b by geometric skips with thinning (each
// such value is L + Exp(b), whatever its answer), and falls back to drawing
// every answer, truncated at L, in the rare run (at most (k+1)·½e^{−8})
// where fewer than k+1 values exceed L. When the noise scale dwarfs the
// answers' spread (no probed answer lies below the head), the dense path
// runs instead. The released indices and gaps have exactly the dense
// sampler's distribution, so the privacy proof is unchanged, but a run's
// time now depends on how many answers lie near the top, on the fallback
// and on which path runs: latency carries information the ε guarantee does
// not cover.
//
// The memory path is flat as well. Each dataset's transactions are stored
// in immutable blocks of 2,048 records, every block one flat item array
// plus end offsets, and data generations share every full block, so an
// append copies only the partial tail block and the block-pointer list.
// Each catalogued dataset's derived state — item counts, presence bitset,
// and min/max/nonzero sketches — lives in one flat columnar arena on the heap,
// materialised exactly once at registration (or by the one recount a
// restart replays) and delta-extended (never rebuilt) when records are
// appended. Request decode and response encode run through hand-rolled
// streaming codecs over pooled buffers whose output is byte-identical to
// encoding/json (golden tests pin every shape, including error envelopes
// and ?trace=1 splices). A response holding a non-finite float, which JSON
// cannot represent, answers 500 internal_error; in a batch only that item
// fails. Either way its ε stays spent.
// Batch requests pre-size the noise requirement of every fixed-draw item —
// topk and max below the lazy-sampling cutoff — fill it in one vectorized
// pass, and hand each item its unit-scale window, bit-identical to
// per-request draws because the Laplace scale multiply factors out exactly
// in IEEE arithmetic; lazily sampled items draw from a live source.
//
// Reads scale across cores too: a filter query's record scan shards the
// dataset's storage blocks across a bounded worker pool — capped by
// GOMAXPROCS, by the surviving block count, and by a process-wide token
// budget so overlapping queries cannot oversubscribe the machine.
// Datasets below the serial-fallback threshold (4 storage blocks = 8192
// records) never fan out, and a scan that cannot claim a token runs serial
// rather than queue. Shards merge in deterministic order over exact
// whole-number float sums, so the parallel result is byte-identical to the
// serial one; ?explain=1 reports the fan-out as parallel_workers and the
// freegap_scan_workers histogram tracks its distribution. On the write
// side, appends and monitor deliveries serialize per dataset, not globally:
// each dataset name hashes into one of 32 ordering domains owning
// journal → apply → deliver, and the derived-state generation is built
// before the domain lock is taken, so appends to different datasets
// proceed fully in parallel (see Streaming).
//
// The concurrency invariants — Σ admitted charges == spent, spent never
// above budget + tolerance, a journal history that holds exactly the
// admitted charges, and per-dataset append/verdict order with
// byte-identical crash recovery — are pinned by -race stress tests
// (internal/server/stress_test.go and
// internal/server/parallel_stress_test.go), and
// BenchmarkServerParallelManyTenants (64 tenants × parallel clients)
// measures the contended serving path.
//
// # Streaming
//
// Catalogued datasets are appendable: POST /v1/datasets/{name}/append takes
// a FIMI delta, validates it against the store's limits, and installs a
// delta-maintained generation — the new generation shares every full
// storage block and zone sketch and copies only the partial tail block, and
// the count vector, presence bitset, min/max sketches and zone sketches are
// all extended from the delta alone. An append therefore costs
// O(delta + one block + number of blocks) for the records plus O(items) for
// the dense count column, never a copy of the resident records, and the
// dataset's count_scans counter stays at 1. Admitted appends are
// journalled before they are applied; recovery replays the registration
// image and then each delta in order. Ordering is per dataset: each
// dataset's appends serialize on its write domain and carry a 1-based
// per-dataset sequence number (the append response's seq field, verified
// contiguous on replay), while appends to different datasets run
// concurrently.
//
// Threshold monitors (POST /v1/monitors) run Sparse-Vector-with-Gap
// server-side over that stream: a monitor names a dataset item and a public
// threshold, is charged its ε exactly once at registration, and answers one
// query per subsequent append until the mechanism's stop rule retires it.
// Verdicts — above/below, the free gap on positive answers, the branch and
// the budget used — stream over Server-Sent Events at
// GET /v1/monitors/{id}/stream, with the full history replayed to late
// subscribers. The registration journals the monitor's noise seed, so a
// restarted server reproduces the identical verdict sequence; the WAL's
// event order is the order verdicts were released, making recovery
// byte-identical. See examples/thresholdmonitor for the end-to-end flow.
//
// # Observability
//
// Every request is served inside a trace context: the server adopts or
// generates an X-Request-ID, echoes it on every response (and inside error
// JSON bodies as request_id), and attributes the request's latency to the
// pipeline stages decode → resolve → validate → charge → execute → encode
// with nothing unattributed — append ?trace=1 to any mechanism or batch
// request for the inline breakdown, whose stage durations sum exactly to
// the reported total. /metrics exposes per-mechanism and per-stage latency
// histograms (an observation is three atomic adds with no lock or
// allocation), durability health (fsync and compaction latency, WAL queue
// depth and generation), per-tenant remaining-ε gauges sampled at scrape
// time, and build/uptime info. ServerConfig.AccessLog emits one log/slog
// JSON record per request; requests slower than
// ServerConfig.SlowRequestThreshold are logged even without it. See
// cmd/dpserver's -access-log, -slow-ms and -debug flags (the latter gates
// /debug/pprof, off by default).
package freegap
