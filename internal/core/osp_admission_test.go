package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"qpipe/internal/core/tbuf"
	"qpipe/internal/tuple"
)

// TestOSPAdmissionSameSignatureRunsOnce: packets with one signature that
// arrive simultaneously must find each other — the first admitted becomes
// the host and every other one attaches to it, so Run executes once per
// round. Many rounds widen the net for the check-then-register race.
func TestOSPAdmissionSameSignatureRunsOnce(t *testing.T) {
	const rounds, n = 200, 32
	var release chan struct{}
	var runs atomic.Int32
	op := &fakeOp{
		op: "x",
		run: func(rt *Runtime, pkt *Packet) error {
			runs.Add(1)
			<-release // produce nothing until every packet is admitted
			return pkt.Out.Put(tbuf.Batch{tuple.Tuple{tuple.I64(7)}})
		},
	}
	rt := newTestRuntime(t, op)
	for r := 0; r < rounds; r++ {
		release = make(chan struct{})
		runs.Store(0)
		node := &fakeNode{op: "x", sig: fmt.Sprintf("round%d", r)}
		start := make(chan struct{})
		qs := make([]*Query, n)
		var wg sync.WaitGroup
		for i := range qs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				q, err := rt.Submit(context.Background(), node)
				if err != nil {
					t.Error(err)
					return
				}
				qs[i] = q
			}()
		}
		close(start)
		wg.Wait()
		close(release)
		if t.Failed() {
			return
		}
		for i, q := range qs {
			rows, err := q.Result.Drain()
			if err != nil || rows != 1 {
				t.Fatalf("round %d query %d: %d rows, err %v", r, i, rows, err)
			}
			if err := q.Wait(); err != nil {
				t.Fatalf("round %d query %d: %v", r, i, err)
			}
		}
		if got := runs.Load(); got != 1 {
			t.Fatalf("round %d: Run executed %d times for %d simultaneous identical packets, want 1", r, got, n)
		}
	}
	if got := rt.Stats().SharesByOp["x"]; got != rounds*(n-1) {
		t.Fatalf("shares: %d, want %d", got, rounds*(n-1))
	}
}
