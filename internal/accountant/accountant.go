// Package accountant tracks privacy-loss budget under sequential composition
// (Section 3.1 of the paper): running mechanisms with budgets ε₁, …, ε_k on
// the same data costs Σεᵢ. The adaptive Sparse Vector experiments (Figure 4)
// report the fraction of budget an analyst has left after the mechanism
// stops, which is exactly the accountant's Remaining value.
package accountant

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrBudgetExceeded is returned by Spend when a charge would push total
// spending above the configured budget.
var ErrBudgetExceeded = errors.New("accountant: privacy budget exceeded")

// ErrInvalidCharge is returned when a non-positive or NaN charge is requested.
var ErrInvalidCharge = errors.New("accountant: charge must be a positive finite value")

// BudgetError is the concrete error returned by Spend/SpendBatch when a
// charge is refused. It wraps ErrBudgetExceeded (errors.Is keeps working) and
// carries the admission arithmetic, so callers can distinguish a budget that
// is already exhausted — no positive charge would fit — from a single
// (possibly batched) charge that is merely too large for what remains.
type BudgetError struct {
	// Spent is the budget consumed before the refused charge.
	Spent float64
	// Requested is the refused charge (the batch total for SpendBatch).
	Requested float64
	// Budget is the configured total budget.
	Budget float64
	// Batch records whether the refused admission held more than one charge.
	Batch bool
}

// Error reproduces the historical message format, so clients matching on the
// text keep working.
func (e *BudgetError) Error() string {
	kind := "charge"
	if e.Batch {
		kind = "batch charge"
	}
	return fmt.Sprintf("accountant: privacy budget exceeded: spent %.6g + %s %.6g > budget %.6g",
		e.Spent, kind, e.Requested, e.Budget)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) hold for every BudgetError.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Exhausted reports whether the budget was already fully spent when the
// charge was refused — the smallest admissible charge would also have been
// rejected — as opposed to this particular charge exceeding a non-trivial
// remainder (the "would-exceed in batch" case).
func (e *BudgetError) Exhausted() bool { return e.Spent >= e.Budget-tolerance }

// Remaining returns the unspent budget at refusal time (never negative).
func (e *BudgetError) Remaining() float64 {
	r := e.Budget - e.Spent
	if r < 0 {
		return 0
	}
	return r
}

// tolerance absorbs floating-point drift when many small charges should sum
// exactly to the budget (e.g. ε₀ + Σεᵢ = ε in Algorithm 2).
const tolerance = 1e-9

// Accountant is a thread-safe sequential-composition budget tracker. One
// mutex guards the spent total, the audit log, the per-label aggregation and
// the journal call, so admission and commit are one step: the journal fires
// iff the charge is admitted, in admission order, and Spent, Charges and
// SpentByLabel always agree.
type Accountant struct {
	// budget is immutable after construction and read without synchronization.
	budget float64

	mu    sync.Mutex
	spent float64
	log   []Charge
	// byLabel is the per-label spend aggregation, maintained incrementally on
	// every commit so budget polls never rescan the log.
	byLabel map[string]float64
	// restored counts charges folded into the accountant by Restore beyond
	// the entries materialised in log (a compacted snapshot aggregates the
	// log by label but preserves the admitted-charge count).
	restored int
	// journal, when set, observes every admitted charge batch. It is called
	// with mu held, immediately after the batch commits, so journal order
	// equals commit order and an entry is journalled iff the charge was
	// admitted. The callback must be fast and must not call back into the
	// accountant.
	journal func(charges []Charge)
}

// Charge records one budget expenditure for auditability.
type Charge struct {
	Label   string
	Epsilon float64
}

// New creates an accountant with the given total ε budget.
func New(budget float64) (*Accountant, error) {
	if !(budget > 0) || math.IsInf(budget, 1) {
		return nil, fmt.Errorf("accountant: budget %v must be positive and finite", budget)
	}
	return &Accountant{budget: budget, byLabel: make(map[string]float64, 8)}, nil
}

// MustNew is New for static configurations known to be valid; it panics on
// error.
func MustNew(budget float64) *Accountant {
	a, err := New(budget)
	if err != nil {
		panic(err)
	}
	return a
}

// Budget returns the configured total budget.
func (a *Accountant) Budget() float64 { return a.budget }

// Spent returns the total ε charged so far.
func (a *Accountant) Spent() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// Remaining returns the unspent budget (never negative).
func (a *Accountant) Remaining() float64 {
	r := a.budget - a.Spent()
	if r < 0 {
		return 0
	}
	return r
}

// RemainingFraction returns Remaining()/Budget(), the quantity plotted in
// Figure 4.
func (a *Accountant) RemainingFraction() float64 {
	return a.Remaining() / a.budget
}

// CanSpend reports whether a charge of eps would be admissible.
func (a *Accountant) CanSpend(eps float64) bool {
	if !(eps > 0) {
		return false
	}
	return a.Spent()+eps <= a.budget+tolerance
}

// Spend charges eps against the budget under the given label. It returns
// ErrBudgetExceeded (and charges nothing) if the budget would be exceeded.
// It is the one-charge case of SpendBatch, so single and batched requests
// share one admission rule.
func (a *Accountant) Spend(label string, eps float64) error {
	return a.SpendBatch([]Charge{{Label: label, Epsilon: eps}})
}

// SpendBatch charges every entry of charges against the budget atomically:
// either all of them are admitted, or (when their sum would exceed the
// budget) none are and ErrBudgetExceeded is returned. It is the primitive
// behind batched serving — a batch reserved in one SpendBatch can never
// overspend what the same requests charged serially could, and concurrent
// batches race for the budget as single indivisible units.
func (a *Accountant) SpendBatch(charges []Charge) error {
	if len(charges) == 0 {
		return fmt.Errorf("%w: empty batch", ErrInvalidCharge)
	}
	var sum float64
	for _, c := range charges {
		if !(c.Epsilon > 0) {
			return fmt.Errorf("%w: %v (label %q)", ErrInvalidCharge, c.Epsilon, c.Label)
		}
		sum += c.Epsilon
	}
	if math.IsInf(sum, 0) || math.IsNaN(sum) {
		return fmt.Errorf("%w: batch total %v", ErrInvalidCharge, sum)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spent+sum > a.budget+tolerance {
		return &BudgetError{Spent: a.spent, Requested: sum, Budget: a.budget, Batch: len(charges) > 1}
	}
	a.spent += sum
	a.log = append(a.log, charges...)
	for _, c := range charges {
		a.byLabel[c.Label] += c.Epsilon
	}
	if a.journal != nil {
		a.journal(charges)
	}
	return nil
}

// SetJournal installs fn as the accountant's charge journal: it is invoked
// with every admitted charge batch, under the accountant's lock, right after
// the batch commits. Persistence layers use it to write a WAL entry iff the
// charge committed. Install the journal before the accountant is shared
// between goroutines; passing nil removes it.
func (a *Accountant) SetJournal(fn func(charges []Charge)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.journal = fn
}

// Restore replaces the accountant's spending state with a previously
// journalled one: charges become the expenditure log (a compacted snapshot
// supplies per-label aggregates) and chargeCount the number of originally
// admitted charges (>= len(charges)). Restoration bypasses the admission
// check on purpose — if the configured budget shrank between runs the
// restored spend may exceed it, in which case every further Spend is
// rejected, which is the safe direction for a privacy accountant. The
// journal is not invoked: restored charges are already durable. Restore must
// happen-before any concurrent Spend (it is a startup operation on a not-yet-
// shared accountant); racing it against live spends can lose the race's
// charges from the restored total.
func (a *Accountant) Restore(charges []Charge, chargeCount int) error {
	var sum float64
	for i, c := range charges {
		if !(c.Epsilon > 0) || math.IsInf(c.Epsilon, 0) {
			return fmt.Errorf("%w: restored charge %d: %v (label %q)", ErrInvalidCharge, i, c.Epsilon, c.Label)
		}
		sum += c.Epsilon
	}
	if math.IsInf(sum, 0) || math.IsNaN(sum) {
		return fmt.Errorf("%w: restored total %v", ErrInvalidCharge, sum)
	}
	if chargeCount < len(charges) {
		return fmt.Errorf("accountant: restored charge count %d below %d log entries", chargeCount, len(charges))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spent = sum
	a.log = append(a.log[:0], charges...)
	a.byLabel = make(map[string]float64, 8)
	for _, c := range charges {
		a.byLabel[c.Label] += c.Epsilon
	}
	a.restored = chargeCount - len(charges)
	return nil
}

// ChargeCount returns the number of admitted charges (including charges
// folded into a restored snapshot) without copying the log.
func (a *Accountant) ChargeCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.restored + len(a.log)
}

// Charges returns a copy of the expenditure log in order.
func (a *Accountant) Charges() []Charge {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Charge, len(a.log))
	copy(out, a.log)
	return out
}

// SpentByLabel returns the per-mechanism spend breakdown a tenant sees on its
// budget ledger. The aggregation is maintained incrementally at commit time,
// so a poll costs one small map copy however long the expenditure log is.
func (a *Accountant) SpentByLabel() map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]float64, len(a.byLabel))
	for label, eps := range a.byLabel {
		out[label] = eps
	}
	return out
}

// Reset clears all spending (including restored state), keeping the budget.
// Like Restore, it must not race concurrent Spends.
func (a *Accountant) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spent = 0
	a.log = a.log[:0]
	a.byLabel = make(map[string]float64, 8)
	a.restored = 0
}

// Split divides the remaining budget into n equal shares and returns the
// per-share ε without charging anything. It is how the "half for selection,
// half for measurement" protocols of Sections 5.2 and 6.2 are expressed.
func (a *Accountant) Split(n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("accountant: cannot split into %d shares", n)
	}
	r := a.budget - a.Spent()
	if r <= 0 {
		return 0, ErrBudgetExceeded
	}
	return r / float64(n), nil
}
