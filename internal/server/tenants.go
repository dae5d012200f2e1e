package server

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"github.com/freegap/freegap/internal/accountant"
	"github.com/freegap/freegap/internal/engine"
)

// ErrTenantLimit is returned by Get/Charge when provisioning a new tenant
// would exceed the registry's tenant cap.
var ErrTenantLimit = errors.New("server: tenant limit reached")

// maxTenantNameLen bounds tenant identifiers so hostile clients cannot grow
// the registry key space without bound per entry; the rule lives in the
// engine so CLI and batch callers validate identically.
const maxTenantNameLen = engine.MaxTenantNameLen

// Registry is a concurrency-safe map of tenant id → privacy accountant. An
// accountant is created with the configured initial budget the first time a
// tenant issues a request, and every subsequent request is charged against it
// atomically, so concurrent clients of the same tenant draw from one budget.
// One RWMutex guards the map, the tenant cap and the journal: lookups (the
// per-request fast path) share the read lock, and only the first request of
// a new tenant takes the write lock.
type Registry struct {
	budget float64
	// maxTenants caps auto-provisioning; zero means unlimited.
	maxTenants int

	mu      sync.RWMutex
	tenants map[string]*accountant.Accountant
	// journal, when set, observes every admitted charge batch of every
	// tenant (see SetJournal).
	journal ChargeJournal
}

// ChargeJournal observes admitted charges for durable persistence. The
// registry installs a per-tenant hook into each accountant so AppendCharge
// runs iff the charge committed, in per-tenant commit order.
type ChargeJournal interface {
	AppendCharge(tenant string, charges []accountant.Charge)
}

// NewRegistry returns a registry that provisions each new tenant with the
// given initial ε budget. maxTenants caps how many tenants may be
// auto-provisioned; zero means unlimited.
func NewRegistry(initialBudget float64, maxTenants int) (*Registry, error) {
	if !(initialBudget > 0) || math.IsInf(initialBudget, 1) {
		return nil, fmt.Errorf("server: tenant budget %v must be positive and finite", initialBudget)
	}
	if maxTenants < 0 {
		return nil, fmt.Errorf("server: max tenants %d must not be negative", maxTenants)
	}
	return &Registry{
		budget:     initialBudget,
		maxTenants: maxTenants,
		tenants:    make(map[string]*accountant.Accountant),
	}, nil
}

// InitialBudget returns the ε budget new tenants are provisioned with.
func (r *Registry) InitialBudget() float64 { return r.budget }

// validTenant reports whether the tenant id is acceptable.
func validTenant(tenant string) error {
	if err := engine.ValidTenant(tenant); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// Get returns the tenant's accountant, creating it with the initial budget on
// first use.
func (r *Registry) Get(tenant string) (*accountant.Accountant, error) {
	if err := validTenant(tenant); err != nil {
		return nil, err
	}
	r.mu.RLock()
	a, ok := r.tenants[tenant]
	r.mu.RUnlock()
	if ok {
		return a, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if a, ok := r.tenants[tenant]; ok {
		return a, nil
	}
	if r.maxTenants > 0 && len(r.tenants) >= r.maxTenants {
		return nil, fmt.Errorf("%w: %d tenants provisioned", ErrTenantLimit, len(r.tenants))
	}
	a = accountant.MustNew(r.budget)
	r.installJournal(tenant, a)
	r.tenants[tenant] = a
	return a, nil
}

// installJournal wires the registry journal (if any) into one accountant.
// Caller holds r.mu for writing.
func (r *Registry) installJournal(tenant string, a *accountant.Accountant) {
	j := r.journal
	if j == nil {
		a.SetJournal(nil)
		return
	}
	a.SetJournal(func(charges []accountant.Charge) { j.AppendCharge(tenant, charges) })
}

// SetJournal installs j as the registry's charge journal: every tenant
// accountant — existing and future — reports its admitted charges to it.
// Install before serving traffic; passing nil removes the hooks.
func (r *Registry) SetJournal(j ChargeJournal) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.journal = j
	for tenant, a := range r.tenants {
		r.installJournal(tenant, a)
	}
}

// RestoreTenant provisions tenant with a previously journalled spending
// state, bypassing the tenant cap (the tenants existed before the restart).
// The restored charges themselves are never re-journalled — they are already
// durable — but future spends of the tenant are. It fails if the tenant was
// already provisioned.
func (r *Registry) RestoreTenant(tenant string, charges []accountant.Charge, chargeCount int) error {
	if err := validTenant(tenant); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[tenant]; ok {
		return fmt.Errorf("server: tenant %q restored twice", tenant)
	}
	a := accountant.MustNew(r.budget)
	if err := a.Restore(charges, chargeCount); err != nil {
		return fmt.Errorf("server: restoring tenant %q: %w", tenant, err)
	}
	r.installJournal(tenant, a)
	r.tenants[tenant] = a
	return nil
}

// Lookup returns the tenant's accountant without creating one.
func (r *Registry) Lookup(tenant string) (*accountant.Accountant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.tenants[tenant]
	return a, ok
}

// Charge atomically charges eps to the tenant under the given label, creating
// the tenant on first use. It returns the remaining budget after the charge;
// accountant.ErrBudgetExceeded means nothing was charged.
func (r *Registry) Charge(tenant, label string, eps float64) (remaining float64, err error) {
	a, err := r.Get(tenant)
	if err != nil {
		return 0, err
	}
	if err := a.Spend(label, eps); err != nil {
		return a.Remaining(), err
	}
	return a.Remaining(), nil
}

// ChargeBatch atomically charges every entry of charges to the tenant,
// creating the tenant on first use. The multi-charge is all-or-nothing: on
// accountant.ErrBudgetExceeded nothing was charged. It returns the remaining
// budget after the attempt.
func (r *Registry) ChargeBatch(tenant string, charges []accountant.Charge) (remaining float64, err error) {
	a, err := r.Get(tenant)
	if err != nil {
		return 0, err
	}
	if err := a.SpendBatch(charges); err != nil {
		return a.Remaining(), err
	}
	return a.Remaining(), nil
}

// Len returns the number of live tenants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// Range calls fn for every live tenant until fn returns false. It walks a
// copy of the map taken under the read lock, so fn runs without the lock and
// may be slow or call back into the registry; tenants created mid-walk are
// not visited.
func (r *Registry) Range(fn func(tenant string, a *accountant.Accountant) bool) {
	r.mu.RLock()
	tenants := maps.Clone(r.tenants)
	r.mu.RUnlock()
	for tenant, a := range tenants {
		if !fn(tenant, a) {
			return
		}
	}
}

// Tenants returns the live tenant ids, sorted.
func (r *Registry) Tenants() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Sorted(maps.Keys(r.tenants))
}
