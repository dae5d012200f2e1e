package server

// Scrape-time sampled metrics. Most of the server's telemetry is pushed on
// the hot path (counters, latency histograms); the values here are instead
// sampled when /metrics is scraped, because they are snapshots of live state
// — uptime, the WAL queue depth and generation, each tenant's remaining ε,
// the accountant CAS-retry total — and sampling them per scrape costs the
// scraper, not the request path.

import (
	"net/http"
	"runtime"
	"time"

	"github.com/freegap/freegap/internal/accountant"
	"github.com/freegap/freegap/internal/telemetry"
)

// maxTenantGaugeSeries caps how many per-tenant remaining-ε gauge series the
// scrape publishes: tenants are client-chosen names, and an unbounded label
// space would let hostile traffic grow every future scrape. Tenants beyond
// the cap still serve and still meter everything else — they just do not get
// an individual gauge line.
const maxTenantGaugeSeries = 1024

// tenantSample carries a tenant past the gauge cap through one scrape, so a
// slot freed by eviction can be granted in the same pass that observed it.
type tenantSample struct {
	tenant    string
	remaining float64
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.sampleScrapeGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.telemetry.WritePrometheus(w)
}

// sampleScrapeGauges refreshes every sampled series. Serialized by scrapeMu
// so concurrent scrapes do not race on the tenant-gauge map or the CAS-retry
// delta bookkeeping.
func (s *Server) sampleScrapeGauges() {
	s.scrapeMu.Lock()
	defer s.scrapeMu.Unlock()
	s.telemetry.FloatGauge("freegap_uptime_seconds").Set(time.Since(s.started).Seconds())
	if s.persist != nil {
		var failed int64
		if s.persist.Err() != nil {
			failed = 1
		}
		s.telemetry.Gauge("freegap_persist_failed").Set(failed)
		s.telemetry.Gauge("freegap_wal_queue_depth").Set(int64(s.persist.Pending()))
		s.telemetry.Gauge("freegap_wal_generation").Set(int64(s.persist.Generation()))
	}
	// One pass over the registry covers both per-tenant gauges and the
	// CAS-retry total. The retry counters are monotone per accountant and
	// accountants are never removed, so the summed total is monotone too;
	// publishing the delta through a Counter keeps the exposition a true
	// counter across scrapes.
	var retries uint64
	live := make(map[string]struct{}, len(s.tenantGauges))
	var overflow []tenantSample // past the cap this scrape; retry after eviction
	s.reg.Range(func(tenant string, a *accountant.Accountant) bool {
		retries += a.CASRetries()
		live[tenant] = struct{}{}
		if g, ok := s.tenantGauges[tenant]; ok {
			g.Set(a.Remaining())
		} else if len(s.tenantGauges) < maxTenantGaugeSeries {
			g := s.telemetry.FloatGauge("freegap_tenant_remaining_epsilon", telemetry.L("tenant", tenant))
			g.Set(a.Remaining())
			s.tenantGauges[tenant] = g
		} else {
			overflow = append(overflow, tenantSample{tenant, a.Remaining()})
		}
		return true
	})
	// Retire the series of tenants no longer in the registry, then hand the
	// freed slots to tenants that arrived after the cap filled — without the
	// eviction, the cap would admit the first maxTenantGaugeSeries tenants
	// forever and later ones could never earn a gauge line.
	for tenant := range s.tenantGauges {
		if _, ok := live[tenant]; !ok {
			delete(s.tenantGauges, tenant)
			s.telemetry.Remove("freegap_tenant_remaining_epsilon", telemetry.L("tenant", tenant))
		}
	}
	for _, ts := range overflow {
		if len(s.tenantGauges) >= maxTenantGaugeSeries {
			break
		}
		g := s.telemetry.FloatGauge("freegap_tenant_remaining_epsilon", telemetry.L("tenant", ts.tenant))
		g.Set(ts.remaining)
		s.tenantGauges[ts.tenant] = g
	}
	if retries >= s.lastCASRetries {
		s.casRetriesTotal.Add(retries - s.lastCASRetries)
		s.lastCASRetries = retries
	}
	// The plan caches count their capacity sweeps per dataset; the scrape sums
	// them into one counter the same monotone-delta way. Removing a dataset
	// can shrink the sum — the guard just skips publishing until it catches
	// back up, keeping the exposition a true counter.
	var flushes uint64
	for _, name := range s.datasets.Names() {
		if e, err := s.datasets.Get(name); err == nil {
			flushes += e.Plans().Flushes()
		}
	}
	if flushes >= s.lastPlanFlushes {
		s.planFlushTotal.Add(flushes - s.lastPlanFlushes)
		s.lastPlanFlushes = flushes
	}
	if s.cfg.Debug {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.telemetry.Gauge("freegap_goroutines").Set(int64(runtime.NumGoroutine()))
		s.telemetry.Gauge("freegap_heap_alloc_bytes").Set(int64(ms.HeapAlloc))
		s.telemetry.Gauge("freegap_gc_pause_total_ns").Set(int64(ms.PauseTotalNs))
	}
}
