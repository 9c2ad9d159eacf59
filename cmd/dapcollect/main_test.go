package main

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/stream"
	"repro/internal/transport"
)

// pushDelta is a minimal encodable delta for tenant "t".
func pushDelta(epoch uint64) *stream.EpochDelta {
	return &stream.EpochDelta{
		Tenant: "t", Epoch: epoch, Seq: epoch,
		Counts:     [][]float64{{1, 2}},
		Ns:         []float64{3},
		StripeSums: [][]float64{{0.5}},
	}
}

// resendLog records the tenants a pusher asked to resend their ledger.
type resendLog struct {
	mu      sync.Mutex
	tenants []string
}

func (r *resendLog) resend(tenant string) {
	r.mu.Lock()
	r.tenants = append(r.tenants, tenant)
	r.mu.Unlock()
}

func (r *resendLog) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tenants)
}

// TestDeltaPusherResendsUnmergedDeltas: a delta whose spends did not
// reach the coordinator's ledger — push failed, answered late, or not
// encodable — asks its tenant for a full ledger; a merged one does not.
func TestDeltaPusherResendsUnmergedDeltas(t *testing.T) {
	answers := []func() (*transport.MergeResponse, error){
		func() (*transport.MergeResponse, error) { return nil, errors.New("connection refused") },
		func() (*transport.MergeResponse, error) { return &transport.MergeResponse{Status: "late"}, nil },
		func() (*transport.MergeResponse, error) { return &transport.MergeResponse{Status: "merged"}, nil },
	}
	var log resendLog
	calls := 0
	p := newDeltaPusher(func(context.Context, []byte) (*transport.MergeResponse, error) {
		a := answers[calls]
		calls++
		return a()
	}, log.resend, "n1")
	for e := uint64(1); e <= 3; e++ {
		p.hook(pushDelta(e))
	}
	bad := pushDelta(4)
	bad.Ns = nil // shape error: EncodeDelta refuses it
	p.hook(bad)
	p.Close()
	if calls != 3 {
		t.Fatalf("%d pushes, want 3", calls)
	}
	if n := log.count(); n != 3 {
		t.Fatalf("%d resends (%v), want 3: failed push, late answer, encode failure", n, log.tenants)
	}
	for _, tn := range log.tenants {
		if tn != "t" {
			t.Fatalf("resend for tenant %q, want t", tn)
		}
	}
}

// TestDeltaPusherResendsDroppedDelta: a delta dropped on a full queue
// asks its tenant for a full ledger.
func TestDeltaPusherResendsDroppedDelta(t *testing.T) {
	release := make(chan struct{})
	var log resendLog
	p := newDeltaPusher(func(context.Context, []byte) (*transport.MergeResponse, error) {
		<-release
		return &transport.MergeResponse{Status: "merged"}, nil
	}, log.resend, "n1")
	// The push goroutine holds at most one delta; the queue the rest.
	total := cap(p.ch) + 10
	for e := 1; e <= total; e++ {
		p.hook(pushDelta(uint64(e)))
	}
	dropped := log.count()
	close(release)
	p.Close()
	if dropped < total-cap(p.ch)-1 {
		t.Fatalf("%d resends for %d deltas into a queue of %d, want ≥ %d",
			dropped, total, cap(p.ch), total-cap(p.ch)-1)
	}
	if log.count() != dropped {
		t.Fatalf("merged deltas asked for %d more resends", log.count()-dropped)
	}
}
