package server

// Concurrency-invariant stress tests for the serving path's budget state.
// One mutex per accountant guards its spent total, audit log, per-label
// totals and journal call; the registry is one RWMutex over one tenant map;
// the WAL observes admitted charges through the journal hook. These tests
// hammer Spend/SpendBatch/Restore from many goroutines (run them with -race)
// and then check the linearization-style invariants any lock layout must
// preserve:
//
//   - Σ admitted charges == spent, per tenant (no lost or double-counted ε)
//   - spent ≤ budget + tolerance, per tenant (no overspend, however many
//     spenders race one budget)
//   - the journalled history holds exactly the admitted charges — none lost,
//     none duplicated — the AWDIT-style "the recorded history must be
//     explainable by the admitted operations" check, run over the real WAL.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/freegap/freegap/internal/accountant"
	"github.com/freegap/freegap/internal/persist"
)

// TestRegistryConcurrentSpendInvariants races single spends, batch spends
// and tenant restores across many tenants and verifies the budget
// invariants tenant by tenant.
func TestRegistryConcurrentSpendInvariants(t *testing.T) {
	const (
		tenants    = 32
		goroutines = 8
		rounds     = 200
		budget     = 1.0
		eps        = 0.004 // small enough that some tenants exhaust mid-run
	)
	reg, err := NewRegistry(budget, 0)
	if err != nil {
		t.Fatal(err)
	}

	// admittedEps[t] accumulates the ε this test observed being admitted
	// for tenant t (the client-side view of the history).
	var admittedEps [tenants]struct {
		mu  sync.Mutex
		sum float64
		n   int
	}
	record := func(ti int, total float64, n int) {
		a := &admittedEps[ti]
		a.mu.Lock()
		a.sum += total
		a.n += n
		a.mu.Unlock()
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ti := (g*rounds + r) % tenants
				tenant := fmt.Sprintf("stress-%02d", ti)
				if r%3 == 0 {
					// Batch of two, all-or-nothing.
					charges := []accountant.Charge{
						{Label: "topk", Epsilon: eps},
						{Label: "svt", Epsilon: eps},
					}
					if _, err := reg.ChargeBatch(tenant, charges); err == nil {
						record(ti, 2*eps, 2)
					}
				} else {
					if _, err := reg.Charge(tenant, "max", eps); err == nil {
						record(ti, eps, 1)
					}
				}
			}
		}(g)
	}
	// Restores race the spends: every restored tenant is a fresh name (the
	// registry forbids restoring an existing one), so restores take the
	// registry's write lock while the spenders hammer its read path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("restored-%02d", i)
			charges := []accountant.Charge{{Label: "restored", Epsilon: 0.25}}
			if err := reg.RestoreTenant(name, charges, 3); err != nil {
				t.Errorf("RestoreTenant(%s): %v", name, err)
			}
		}
	}()
	wg.Wait()

	const tol = 1e-9
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("stress-%02d", ti)
		acct, ok := reg.Lookup(tenant)
		if !ok {
			t.Fatalf("tenant %s never provisioned", tenant)
		}
		a := &admittedEps[ti]
		if got := acct.Spent(); math.Abs(got-a.sum) > tol {
			t.Errorf("%s: spent = %v, Σ admitted = %v", tenant, got, a.sum)
		}
		if got := acct.Spent(); got > budget+tol {
			t.Errorf("%s: spent %v exceeds budget %v", tenant, got, budget)
		}
		if got := acct.ChargeCount(); got != a.n {
			t.Errorf("%s: ChargeCount = %d, admitted %d charges", tenant, got, a.n)
		}
		// The incremental aggregation agrees with the raw log.
		var bySum float64
		for _, v := range acct.SpentByLabel() {
			bySum += v
		}
		if math.Abs(bySum-a.sum) > tol {
			t.Errorf("%s: Σ SpentByLabel = %v, Σ admitted = %v", tenant, bySum, a.sum)
		}
	}
	for i := 0; i < 50; i++ {
		acct, ok := reg.Lookup(fmt.Sprintf("restored-%02d", i))
		if !ok {
			t.Fatalf("restored-%02d missing", i)
		}
		if got := acct.Spent(); math.Abs(got-0.25) > tol {
			t.Errorf("restored-%02d: spent = %v, want 0.25", i, got)
		}
		if got := acct.ChargeCount(); got != 3 {
			t.Errorf("restored-%02d: ChargeCount = %d, want 3", i, got)
		}
	}
	if got, want := reg.Len(), tenants+50; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}

// TestWALHistoryMatchesAdmittedCharges is the AWDIT-style history check: a
// real WAL journals a storm of racing charges, and afterwards the durable
// state must hold exactly the admitted history — same per-tenant totals,
// same per-label breakdown, same charge counts; nothing admitted without
// its journal entry, nothing journalled twice.
func TestWALHistoryMatchesAdmittedCharges(t *testing.T) {
	const (
		tenants    = 8
		goroutines = 8
		rounds     = 150
		budget     = 1e9 // effectively unlimited: every charge is admitted
	)
	lg, err := persist.Open(t.TempDir(), persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetJournal(lg)

	type labelKey struct {
		tenant, label string
	}
	var mu sync.Mutex
	admitted := make(map[labelKey]struct {
		sum float64
		n   int
	})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tenant := fmt.Sprintf("t-%d", (g+r)%tenants)
				label := []string{"topk", "max", "svt"}[r%3]
				eps := 0.001 * float64(1+r%5)
				var charges []accountant.Charge
				if r%4 == 0 {
					charges = []accountant.Charge{
						{Label: label, Epsilon: eps},
						{Label: "batch-extra", Epsilon: eps / 2},
					}
				} else {
					charges = []accountant.Charge{{Label: label, Epsilon: eps}}
				}
				if _, err := reg.ChargeBatch(tenant, charges); err != nil {
					t.Errorf("ChargeBatch: %v", err)
					return
				}
				mu.Lock()
				for _, c := range charges {
					k := labelKey{tenant, c.Label}
					a := admitted[k]
					a.sum += c.Epsilon
					a.n++
					admitted[k] = a
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if err := lg.Close(); err != nil {
		t.Fatalf("closing WAL: %v", err)
	}

	// Reopen the log and compare the recovered history against what was
	// actually admitted.
	lg2, err := persist.Open(lg.Dir(), persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	state := lg2.State()

	const tol = 1e-9
	wantByTenant := make(map[string]struct {
		sum float64
		n   int
	})
	for k, a := range admitted {
		w := wantByTenant[k.tenant]
		w.sum += a.sum
		w.n += a.n
		wantByTenant[k.tenant] = w
	}
	if got, want := len(state.Tenants), len(wantByTenant); got != want {
		t.Fatalf("WAL holds %d tenants, want %d", got, want)
	}
	for tenant, want := range wantByTenant {
		ts, ok := state.Tenants[tenant]
		if !ok {
			t.Errorf("tenant %s missing from WAL", tenant)
			continue
		}
		var gotSum float64
		gotByLabel := make(map[string]float64)
		for _, c := range ts.Charges {
			gotSum += c.Epsilon
			gotByLabel[c.Label] += c.Epsilon
		}
		if math.Abs(gotSum-want.sum) > tol {
			t.Errorf("%s: WAL total %v, admitted %v", tenant, gotSum, want.sum)
		}
		if ts.ChargeCount != want.n {
			t.Errorf("%s: WAL charge count %d, admitted %d", tenant, ts.ChargeCount, want.n)
		}
		for k, a := range admitted {
			if k.tenant != tenant {
				continue
			}
			if got := gotByLabel[k.label]; math.Abs(got-a.sum) > tol {
				t.Errorf("%s/%s: WAL %v, admitted %v", tenant, k.label, got, a.sum)
			}
		}
	}
	// The live registry agrees with the durable history, closing the loop:
	// admitted == in-memory == journalled.
	for tenant, want := range wantByTenant {
		acct, ok := reg.Lookup(tenant)
		if !ok {
			t.Fatalf("tenant %s missing from registry", tenant)
		}
		if got := acct.Spent(); math.Abs(got-want.sum) > tol {
			t.Errorf("%s: registry spent %v, admitted %v", tenant, got, want.sum)
		}
	}
}

// TestAccountantCASNeverOverspends pins the admission rule at the accountant
// level: many goroutines race one tight budget, admitted one at a time under
// the accountant's mutex, with charges that do not divide it evenly, and the
// admitted total must land within tolerance of (and never above) the budget.
// (The name predates the mutex; it is kept so that runs selecting tests by
// name still find it.)
func TestAccountantCASNeverOverspends(t *testing.T) {
	const (
		budget     = 1.0
		eps        = 0.03
		goroutines = 16
		attempts   = 100
	)
	a := accountant.MustNew(budget)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				if err := a.Spend("stress", eps); err == nil {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	const tol = 1e-9
	wantSpent := float64(admitted.Load()) * eps
	if got := a.Spent(); math.Abs(got-wantSpent) > tol {
		t.Errorf("spent = %v, %d admitted × %v = %v", got, admitted.Load(), eps, wantSpent)
	}
	if got := a.Spent(); got > budget+tol {
		t.Errorf("spent %v exceeds budget %v", got, budget)
	}
	// Every admission that would still have fit must have been granted: the
	// remaining budget is smaller than one more charge.
	if rem := a.Remaining(); rem >= eps {
		t.Errorf("remaining %v still fits a charge of %v — admissions lost", rem, eps)
	}
	if got, want := a.ChargeCount(), int(admitted.Load()); got != want {
		t.Errorf("ChargeCount = %d, want %d", got, want)
	}
}
