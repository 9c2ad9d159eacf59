package privacy

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestNewAccountantValidation(t *testing.T) {
	if _, err := NewAccountant(0); err == nil {
		t.Fatal("cap=0 accepted")
	}
}

func TestSpendWithinCap(t *testing.T) {
	a, _ := NewAccountant(1)
	if err := a.Spend("u1", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("u1", 0.5); err != nil {
		t.Fatal(err)
	}
	if !a.Exhausted("u1") {
		t.Fatal("u1 should be exhausted")
	}
	if got := a.Spent("u1"); got != 1 {
		t.Fatalf("spent = %v", got)
	}
}

func TestSpendRejectsOverCap(t *testing.T) {
	a, _ := NewAccountant(1)
	if err := a.Spend("u1", 0.9); err != nil {
		t.Fatal(err)
	}
	err := a.Spend("u1", 0.2)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	// The failed spend must not be recorded.
	if got := a.Spent("u1"); got != 0.9 {
		t.Fatalf("spent = %v, want 0.9", got)
	}
}

func TestSpendRejectsNonPositive(t *testing.T) {
	a, _ := NewAccountant(1)
	if err := a.Spend("u1", 0); err == nil {
		t.Fatal("zero spend accepted")
	}
	if err := a.Spend("u1", -0.5); err == nil {
		t.Fatal("negative spend accepted")
	}
}

// DAP grouping invariant: 2^t reports of ε/2^t compose to exactly ε.
func TestSequentialCompositionExactness(t *testing.T) {
	a, _ := NewAccountant(1)
	for _, reports := range []int{1, 2, 4, 8, 16} {
		id := string(rune('a' + reports))
		eps := 1.0 / float64(reports)
		for i := 0; i < reports; i++ {
			if err := a.Spend(id, eps); err != nil {
				t.Fatalf("%d reports of %v: %v", reports, eps, err)
			}
		}
		if !a.Exhausted(id) {
			t.Fatalf("%d reports should exhaust the budget", reports)
		}
		if err := a.Spend(id, eps); err == nil {
			t.Fatalf("%d+1-th report accepted", reports)
		}
	}
}

func TestRemaining(t *testing.T) {
	a, _ := NewAccountant(2)
	a.Spend("u", 0.5)
	if got := a.Remaining("u"); got != 1.5 {
		t.Fatalf("remaining = %v", got)
	}
	if got := a.Remaining("fresh"); got != 2 {
		t.Fatalf("fresh remaining = %v", got)
	}
}

func TestUsers(t *testing.T) {
	a, _ := NewAccountant(1)
	a.Spend("u1", 0.1)
	a.Spend("u2", 0.1)
	a.Spend("u1", 0.1)
	if got := a.Users(); got != 2 {
		t.Fatalf("users = %d", got)
	}
}

func TestConcurrentSpends(t *testing.T) {
	a, _ := NewAccountant(1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := a.Spend("shared", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := a.Spent("shared"); got != 800 {
		t.Fatalf("spent = %v, want 800", got)
	}
}

func TestSpendNAtomicity(t *testing.T) {
	a, _ := NewAccountant(1)
	// Four slots of 0.25 fit exactly.
	if err := a.SpendN("u", 0.25, 4); err != nil {
		t.Fatal(err)
	}
	if !a.Exhausted("u") {
		t.Fatal("u should be exhausted")
	}
	// A batch that does not fit must leave the ledger untouched: no
	// partial spend survives a rejected upload.
	b, _ := NewAccountant(1)
	if err := b.SpendN("v", 0.5, 3); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if got := b.Spent("v"); got != 0 {
		t.Fatalf("rejected batch recorded %v", got)
	}
	if err := b.SpendN("v", 0.5, 2); err != nil {
		t.Fatalf("exact batch rejected after failed one: %v", err)
	}
	if err := b.SpendN("v", 0.5, 0); err == nil {
		t.Fatal("zero-count batch accepted")
	}
}

func TestSpendNConcurrentNoOverspend(t *testing.T) {
	// 8 workers race 100 single-slot batches against a cap of 50: exactly
	// 50 must land regardless of interleaving.
	a, _ := NewAccountant(50)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = a.SpendN("shared", 1, 1)
			}
		}()
	}
	wg.Wait()
	if got := a.Spent("shared"); got != 50 {
		t.Fatalf("spent = %v, want 50", got)
	}
}

func TestCap(t *testing.T) {
	a, _ := NewAccountant(3)
	if a.Cap() != 3 {
		t.Fatal("Cap broken")
	}
}

// TestBindSpendNOneRow: the ledger row holds the group binding next to
// the spend. A first charge binds, another group is rejected without
// changing anything, a join-only or refunded row is a binding but no
// ledger entry, and the replay form keeps bindings and skips the cap.
func TestBindSpendNOneRow(t *testing.T) {
	a, _ := NewAccountant(1)
	if err := a.BindSpendN("u", 2, 0.25, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.BindSpendN("u", 1, 0.25, 1); !errors.Is(err, ErrWrongGroup) {
		t.Fatalf("charge for another group: %v, want ErrWrongGroup", err)
	}
	if err := a.BindSpendN("u", 2, 0.5, 2); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-cap charge: %v, want ErrBudgetExceeded", err)
	}
	if got := a.Spent("u"); got != 0.25 {
		t.Fatalf("rejected charges changed the spend to %v", got)
	}

	a.Bind("joined", 0)
	a.Refund("u", 0.25, 1)
	if a.Users() != 0 || len(a.Export()) != 0 || len(a.AppendUsers(nil)) != 0 || a.TotalSpent() != 0 {
		t.Fatalf("bindings without spend count as ledger entries: users %d, export %v", a.Users(), a.Export())
	}
	if got := a.ExportGroups(); len(got) != 2 || got["u"] != 2 || got["joined"] != 0 {
		t.Fatalf("ExportGroups = %v, want u→2 and joined→0", got)
	}
	if err := a.BindSpendN("u", 0, 0.25, 1); !errors.Is(err, ErrWrongGroup) {
		t.Fatalf("refunded user charging another group: %v, want ErrWrongGroup", err)
	}

	// Replay: an existing binding stands, the cap is not re-asked, and
	// n = 0 binds only.
	a.ForceBindSpendN("joined", 1, 0.75, 2)
	a.ForceBindSpendN("fresh", 1, 0.25, 0)
	if got := a.Spent("joined"); got != 1.5 {
		t.Fatalf("forced spend = %v, want 1.5", got)
	}
	if got := a.ExportGroups(); got["joined"] != 0 || got["fresh"] != 1 {
		t.Fatalf("ExportGroups after replay = %v", got)
	}
	if a.Users() != 1 {
		t.Fatalf("Users() = %d, want 1", a.Users())
	}
	if got := a.AppendUsers([]string{"x"}); !reflect.DeepEqual(got, []string{"x", "joined"}) {
		t.Fatalf("AppendUsers = %v, want the one spender appended", got)
	}

	// A SpendN row has no binding: refunded to zero it disappears.
	if err := a.SpendN("plain", 0.5, 1); err != nil {
		t.Fatal(err)
	}
	a.Refund("plain", 0.5, 1)
	if _, ok := a.ExportGroups()["plain"]; ok || a.Users() != 1 {
		t.Fatal("refunded unbound row survived")
	}
}

// TestRestoreRoundTrip: Export + ExportGroups restored into a fresh
// accountant give back the same ledger, bindings and spender count,
// including join-only and unbound rows.
func TestRestoreRoundTrip(t *testing.T) {
	a, _ := NewAccountant(1)
	for i := 0; i < 300; i++ {
		if err := a.BindSpendN(fmt.Sprintf("u%d", i), i%3, 0.1, 1+i%3); err != nil {
			t.Fatal(err)
		}
	}
	a.Bind("joined", 2)
	if err := a.SpendN("unbound", 0.3, 1); err != nil {
		t.Fatal(err)
	}
	b, _ := NewAccountant(1)
	b.Restore(a.Export(), a.ExportGroups())
	if !reflect.DeepEqual(b.Export(), a.Export()) || !reflect.DeepEqual(b.ExportGroups(), a.ExportGroups()) {
		t.Fatal("restored ledger or bindings differ")
	}
	if b.Users() != 301 {
		t.Fatalf("restored Users() = %d, want 301", b.Users())
	}
	if err := b.BindSpendN("joined", 0, 0.1, 1); !errors.Is(err, ErrWrongGroup) {
		t.Fatalf("restored join binding: %v, want ErrWrongGroup", err)
	}
}
