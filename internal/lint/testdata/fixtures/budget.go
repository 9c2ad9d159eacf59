// Fixture for the budget analyzer, type-checked as
// repro/internal/stream. Local stubs carry the repo's idiom names the
// analyzer anchors on.
package stream

import "errors"

type Accountant struct{}

func (a *Accountant) SpendN(user string, eps float64, n int) error { return nil }
func (a *Accountant) BindSpendN(user string, group int, eps float64, n int) error {
	return nil
}
func (a *Accountant) ForceBindSpendN(user string, group int, eps float64, n int) {}
func (a *Accountant) Refund(user string, eps float64, n int)                     {}

type shard struct{ n float64 }

func (sh *shard) addLocked(idx []int, vals []float64) { sh.n++ }

type Store struct{}

func (st *Store) AppendIngest(tenant, user string) (uint64, error) { return 0, nil }

var errDown = errors.New("down")

// mutateWithoutCharge touches the histogram before any charge.
func mutateWithoutCharge(sh *shard, idx []int, vals []float64) {
	sh.addLocked(idx, vals) // want budget "without a preceding Accountant charge"
}

// chargeNoRefund appends after a charge but can never roll it back.
func chargeNoRefund(a *Accountant, st *Store, sh *shard) error { // want budget "never refunds"
	if err := a.SpendN("u", 1, 1); err != nil {
		return err
	}
	if _, err := st.AppendIngest("t", "u"); err != nil { // want budget "without refunding"
		return errDown
	}
	sh.addLocked(nil, nil)
	return nil
}

// skipsRefundOnError has a refund elsewhere but not in the error branch.
func skipsRefundOnError(a *Accountant, st *Store, sh *shard, undo bool) error {
	if err := a.SpendN("u", 1, 1); err != nil {
		return err
	}
	if undo {
		a.Refund("u", 1, 1)
	}
	if _, err := st.AppendIngest("t", "u"); err != nil { // want budget "without refunding"
		return errDown
	}
	sh.addLocked(nil, nil)
	return nil
}

// chargeThenRefund is the contract: failed append rolls the charge back.
func chargeThenRefund(a *Accountant, st *Store, sh *shard) error {
	if err := a.SpendN("u", 1, 1); err != nil {
		return err
	}
	if _, err := st.AppendIngest("t", "u"); err != nil {
		a.Refund("u", 1, 1)
		return errDown
	}
	sh.addLocked(nil, nil)
	return nil
}

// mutateBeforeBind touches the histogram before the bind+charge call.
func mutateBeforeBind(a *Accountant, sh *shard) error {
	sh.addLocked(nil, nil) // want budget "without a preceding Accountant charge"
	return a.BindSpendN("u", 0, 1, 1)
}

// bindChargeNoRefund: BindSpendN is a charge, so its failed append must
// refund too.
func bindChargeNoRefund(a *Accountant, st *Store, sh *shard) error { // want budget "never refunds"
	if err := a.BindSpendN("u", 0, 1, 1); err != nil {
		return err
	}
	if _, err := st.AppendIngest("t", "u"); err != nil { // want budget "without refunding"
		return errDown
	}
	sh.addLocked(nil, nil)
	return nil
}

// bindChargeThenRefund is the contract in its bind+charge form.
func bindChargeThenRefund(a *Accountant, st *Store, sh *shard) error {
	if err := a.BindSpendN("u", 0, 1, 1); err != nil {
		return err
	}
	if _, err := st.AppendIngest("t", "u"); err != nil {
		a.Refund("u", 1, 1)
		return errDown
	}
	sh.addLocked(nil, nil)
	return nil
}

// replayForced is the recovery path: ForceBindSpendN dominates the
// mutation and there is no store append to refund.
func replayForced(a *Accountant, sh *shard) {
	a.ForceBindSpendN("u", 0, 1, 1)
	sh.addLocked(nil, nil)
}
