package accountant

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := New(-1); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := New(math.NaN()); err == nil {
		t.Fatal("NaN budget accepted")
	}
	if _, err := New(math.Inf(1)); err == nil {
		t.Fatal("infinite budget accepted")
	}
	a, err := New(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Budget() != 1.5 {
		t.Fatalf("budget %v", a.Budget())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(-1)
}

func TestSpendAndRemaining(t *testing.T) {
	a := MustNew(1.0)
	if err := a.Spend("threshold", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("query", 0.5); err != nil {
		t.Fatal(err)
	}
	if got := a.Spent(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("spent %v", got)
	}
	if got := a.Remaining(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("remaining %v", got)
	}
	if got := a.RemainingFraction(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("remaining fraction %v", got)
	}
	if err := a.Spend("too much", 0.5); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected ErrBudgetExceeded, got %v", err)
	}
	// Failed spends must not change state.
	if got := a.Spent(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("failed spend altered state: %v", got)
	}
}

func TestSpendInvalidCharge(t *testing.T) {
	a := MustNew(1)
	for _, eps := range []float64{0, -0.1, math.NaN()} {
		if err := a.Spend("bad", eps); !errors.Is(err, ErrInvalidCharge) {
			t.Errorf("charge %v: expected ErrInvalidCharge, got %v", eps, err)
		}
	}
}

func TestSpendExactBudgetWithTolerance(t *testing.T) {
	a := MustNew(0.7)
	// Charge in 7 slices of 0.1 whose float sum is not exactly 0.7.
	for i := 0; i < 7; i++ {
		if err := a.Spend("slice", 0.1); err != nil {
			t.Fatalf("slice %d rejected: %v", i, err)
		}
	}
	if a.CanSpend(0.05) {
		t.Fatal("budget exhausted yet CanSpend accepted a real charge")
	}
}

func TestCanSpend(t *testing.T) {
	a := MustNew(1)
	if !a.CanSpend(1) {
		t.Fatal("full budget should be spendable")
	}
	if a.CanSpend(1.5) {
		t.Fatal("over-budget charge admitted")
	}
	if a.CanSpend(0) || a.CanSpend(-1) {
		t.Fatal("non-positive charge admitted")
	}
}

func TestChargesLogAndReset(t *testing.T) {
	a := MustNew(2)
	_ = a.Spend("a", 0.5)
	_ = a.Spend("b", 0.25)
	log := a.Charges()
	if len(log) != 2 || log[0].Label != "a" || log[1].Epsilon != 0.25 {
		t.Fatalf("unexpected log %+v", log)
	}
	// Mutating the returned slice must not affect the accountant.
	log[0].Epsilon = 99
	if a.Charges()[0].Epsilon != 0.5 {
		t.Fatal("Charges returned internal slice")
	}
	a.Reset()
	if a.Spent() != 0 || len(a.Charges()) != 0 {
		t.Fatal("reset did not clear state")
	}
	if a.Budget() != 2 {
		t.Fatal("reset changed the budget")
	}
}

func TestSplit(t *testing.T) {
	a := MustNew(1)
	share, err := a.Split(4)
	if err != nil || math.Abs(share-0.25) > 1e-12 {
		t.Fatalf("share %v err %v", share, err)
	}
	_ = a.Spend("half", 0.5)
	share, err = a.Split(2)
	if err != nil || math.Abs(share-0.25) > 1e-12 {
		t.Fatalf("share after spend %v err %v", share, err)
	}
	if _, err := a.Split(0); err == nil {
		t.Fatal("split into zero shares accepted")
	}
	_ = a.Spend("rest", 0.5)
	if _, err := a.Split(2); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected ErrBudgetExceeded, got %v", err)
	}
}

func TestConcurrentSpendNeverExceedsBudget(t *testing.T) {
	a := MustNew(1)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = a.Spend("w", 0.003)
			}
		}()
	}
	wg.Wait()
	if a.Spent() > a.Budget()+1e-6 {
		t.Fatalf("spent %v exceeds budget %v", a.Spent(), a.Budget())
	}
}

func TestSpendNeverExceedsBudgetProperty(t *testing.T) {
	f := func(charges []float64) bool {
		a := MustNew(1)
		for _, c := range charges {
			c = math.Abs(math.Mod(c, 0.3))
			if c == 0 {
				continue
			}
			_ = a.Spend("p", c)
		}
		return a.Spent() <= a.Budget()+1e-6 && a.Remaining() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSpendBatchAllOrNothing(t *testing.T) {
	a := MustNew(1.0)
	batch := []Charge{
		{Label: "topk", Epsilon: 0.3},
		{Label: "svt", Epsilon: 0.3},
	}
	if err := a.SpendBatch(batch); err != nil {
		t.Fatalf("first batch rejected: %v", err)
	}
	if got := a.Spent(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("spent = %v, want 0.6", got)
	}
	if got := a.ChargeCount(); got != 2 {
		t.Fatalf("charge count = %d, want 2", got)
	}

	// A second identical batch needs 0.6 but only 0.4 remains: nothing at all
	// may be charged.
	err := a.SpendBatch(batch)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-budget batch returned %v, want ErrBudgetExceeded", err)
	}
	if got := a.Spent(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("rejected batch changed spend: %v", got)
	}
	if got := a.ChargeCount(); got != 2 {
		t.Fatalf("rejected batch appended to the log: %d charges", got)
	}

	// A smaller batch that fits is still admitted afterwards.
	if err := a.SpendBatch([]Charge{{Label: "max", Epsilon: 0.4}}); err != nil {
		t.Fatalf("fitting batch rejected: %v", err)
	}
}

func TestSpendBatchRejectsInvalidCharges(t *testing.T) {
	a := MustNew(1.0)
	for _, batch := range [][]Charge{
		nil,
		{},
		{{Label: "ok", Epsilon: 0.1}, {Label: "bad", Epsilon: 0}},
		{{Label: "bad", Epsilon: -0.5}},
		{{Label: "bad", Epsilon: math.NaN()}},
		{{Label: "bad", Epsilon: math.Inf(1)}},
	} {
		if err := a.SpendBatch(batch); !errors.Is(err, ErrInvalidCharge) {
			t.Errorf("SpendBatch(%v) = %v, want ErrInvalidCharge", batch, err)
		}
	}
	if a.Spent() != 0 || a.ChargeCount() != 0 {
		t.Fatalf("invalid batches charged something: spent %v, %d charges", a.Spent(), a.ChargeCount())
	}
}

func TestConcurrentSpendBatchNeverOverdrafts(t *testing.T) {
	a := MustNew(1.0)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = a.SpendBatch([]Charge{
					{Label: "a", Epsilon: 0.02},
					{Label: "b", Epsilon: 0.03},
				})
			}
		}()
	}
	wg.Wait()
	if a.Spent() > a.Budget()+1e-6 {
		t.Fatalf("spent %v exceeds budget %v", a.Spent(), a.Budget())
	}
	// All-or-nothing: total spend must be a whole number of 0.05 batches.
	batches := a.Spent() / 0.05
	if math.Abs(batches-math.Round(batches)) > 1e-6 {
		t.Fatalf("spent %v is not a whole number of batch charges", a.Spent())
	}
	if a.ChargeCount()%2 != 0 {
		t.Fatalf("charge log holds half a batch: %d entries", a.ChargeCount())
	}
}

func TestSpentByLabel(t *testing.T) {
	a := MustNew(10)
	_ = a.Spend("topk", 1)
	_ = a.Spend("svt", 0.5)
	_ = a.SpendBatch([]Charge{{Label: "topk", Epsilon: 0.25}, {Label: "max", Epsilon: 0.75}})
	got := a.SpentByLabel()
	want := map[string]float64{"topk": 1.25, "svt": 0.5, "max": 0.75}
	if len(got) != len(want) {
		t.Fatalf("SpentByLabel = %v, want %v", got, want)
	}
	for label, eps := range want {
		if math.Abs(got[label]-eps) > 1e-12 {
			t.Errorf("SpentByLabel[%q] = %v, want %v", label, got[label], eps)
		}
	}
	if len(MustNew(1).SpentByLabel()) != 0 {
		t.Error("fresh accountant reports a non-empty breakdown")
	}
}

func TestBudgetErrorTyped(t *testing.T) {
	a := MustNew(1)
	if err := a.Spend("topk", 0.9); err != nil {
		t.Fatal(err)
	}

	// Would-exceed: 0.5 doesn't fit the remaining 0.1, but budget remains.
	err := a.Spend("topk", 0.5)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not a *BudgetError", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Error("BudgetError does not unwrap to ErrBudgetExceeded")
	}
	if be.Exhausted() {
		t.Errorf("Exhausted() = true with remaining %v", be.Remaining())
	}
	if be.Batch {
		t.Error("single charge flagged as batch")
	}
	if math.Abs(be.Remaining()-0.1) > 1e-9 || be.Spent != 0.9 || be.Budget != 1 || be.Requested != 0.5 {
		t.Errorf("BudgetError = %+v", be)
	}
	if want := "accountant: privacy budget exceeded: spent 0.9 + charge 0.5 > budget 1"; err.Error() != want {
		t.Errorf("message = %q, want %q", err.Error(), want)
	}

	// Drain the rest, then assert the exhausted flavour.
	if err := a.Spend("topk", 0.1); err != nil {
		t.Fatal(err)
	}
	err = a.SpendBatch([]Charge{{Label: "a", Epsilon: 0.1}, {Label: "b", Epsilon: 0.1}})
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not a *BudgetError", err)
	}
	if !be.Exhausted() {
		t.Error("Exhausted() = false on a fully spent budget")
	}
	if !be.Batch {
		t.Error("batch charge not flagged as batch")
	}
}

func TestJournalCalledIffCommitted(t *testing.T) {
	a := MustNew(2)
	var journalled []Charge
	a.SetJournal(func(charges []Charge) { journalled = append(journalled, charges...) })

	if err := a.Spend("topk", 0.6); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("svt", 1.6); err == nil {
		t.Fatal("over-budget charge admitted")
	}
	if err := a.SpendBatch([]Charge{{Label: "a", Epsilon: 0.2}, {Label: "b", Epsilon: 0.2}}); err != nil {
		t.Fatal(err)
	}
	want := []Charge{{Label: "topk", Epsilon: 0.6}, {Label: "a", Epsilon: 0.2}, {Label: "b", Epsilon: 0.2}}
	if len(journalled) != len(want) {
		t.Fatalf("journalled %v, want %v", journalled, want)
	}
	for i := range want {
		if journalled[i] != want[i] {
			t.Errorf("journalled[%d] = %v, want %v", i, journalled[i], want[i])
		}
	}

	a.SetJournal(nil)
	if err := a.Spend("topk", 0.5); err != nil {
		t.Fatal(err)
	}
	if len(journalled) != 3 {
		t.Error("journal still called after removal")
	}
}

func TestRestore(t *testing.T) {
	a := MustNew(10)
	if err := a.Restore([]Charge{{Label: "topk", Epsilon: 3}, {Label: "svt", Epsilon: 1}}, 7); err != nil {
		t.Fatal(err)
	}
	if a.Spent() != 4 || a.Remaining() != 6 {
		t.Errorf("spent/remaining = %v/%v, want 4/6", a.Spent(), a.Remaining())
	}
	if a.ChargeCount() != 7 {
		t.Errorf("ChargeCount = %d, want 7 (restored count preserved)", a.ChargeCount())
	}
	by := a.SpentByLabel()
	if by["topk"] != 3 || by["svt"] != 1 {
		t.Errorf("SpentByLabel = %v", by)
	}
	// Further spending continues from the restored state.
	if err := a.Spend("max", 6); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("max", 0.1); err == nil {
		t.Error("overdraft admitted after restore")
	}
	if a.ChargeCount() != 8 {
		t.Errorf("ChargeCount = %d, want 8", a.ChargeCount())
	}

	// Restoring beyond the configured budget is allowed (budget may have
	// shrunk between runs); everything is then rejected.
	b := MustNew(1)
	if err := b.Restore([]Charge{{Label: "topk", Epsilon: 5}}, 1); err != nil {
		t.Fatal(err)
	}
	if b.Remaining() != 0 {
		t.Errorf("remaining = %v, want 0", b.Remaining())
	}
	if err := b.Spend("topk", 0.001); err == nil {
		t.Error("spend admitted on an over-restored accountant")
	}

	// Invalid restores are rejected.
	if err := MustNew(1).Restore([]Charge{{Label: "x", Epsilon: -1}}, 1); err == nil {
		t.Error("negative restored charge accepted")
	}
	if err := MustNew(1).Restore([]Charge{{Label: "x", Epsilon: 1}}, 0); err == nil {
		t.Error("charge count below log length accepted")
	}

	// Reset clears restored state too.
	a.Reset()
	if a.Spent() != 0 || a.ChargeCount() != 0 {
		t.Errorf("after Reset: spent %v, count %d", a.Spent(), a.ChargeCount())
	}
}
