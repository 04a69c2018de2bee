package ops

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
)

// mixedConsumers are three scans of t that share one scan group: filtered,
// filtered and projected, and pass-through — the three ways a scan worker
// serves a page.
func mixedConsumers(clustered bool) []plan.Node {
	scan := func(filter expr.Pred, project []int) plan.Node {
		if clustered {
			return plan.NewIndexScan("t", testSchema(), "k", tuple.Value{}, tuple.Value{}, true, false, filter, project)
		}
		return plan.NewTableScan("t", testSchema(), filter, project, false)
	}
	return []plan.Node{
		scan(expr.LT(expr.Col(1), expr.CInt(2)), nil),
		scan(expr.GE(expr.Col(0), expr.CInt(1700)), []int{2, 0}),
		scan(nil, nil),
	}
}

// TestMixedConsumerParity: a filtered, a filtered+projected and a
// pass-through consumer of one shared scan group, over a heap table and a
// clustered index at several parallelism and batch sizes. Answers are
// drained only after the whole group has finished, so a row that still
// viewed a scan worker's scratch would have been overwritten by later pages
// and could not match the consumer's standalone answer.
func TestMixedConsumerParity(t *testing.T) {
	const n = 3000
	for _, clustered := range []bool{false, true} {
		nodes := mixedConsumers(clustered)
		base := newIndexedRT(t, n, core.BaselineConfig())
		want := make([][]tuple.Tuple, len(nodes))
		for i, node := range nodes {
			want[i] = runPlan(t, base, node)
		}
		op := plan.OpTableScan
		if clustered {
			op = plan.OpIndexScan
		}
		for _, par := range []int{1, 4} {
			for _, batch := range []int{1, 64} {
				cfg := parCfg(par)
				cfg.BatchSize = batch
				cfg.BufferCapacity = 1 << 12 // the group never waits on a consumer
				got := runGroupThenDrain(t, cfg, n, op, nodes)
				for i := range nodes {
					assertSameRows(t, want[i], got[i], fmt.Sprintf("clustered=%v P=%d batch=%d consumer %d", clustered, par, batch, i))
				}
			}
		}
	}
}

// runGroupThenDrain admits every node while the scan µEngine op is gated, so
// all of them join the first one's scan group, then lets the group run to
// completion and only afterwards drains each answer.
func runGroupThenDrain(t *testing.T, cfg core.Config, n int, op plan.OpType, nodes []plan.Node) [][]tuple.Tuple {
	t.Helper()
	gate := make(chan struct{})
	ops := All()
	for i, o := range ops {
		if o.Op() == op {
			ops[i] = &gatedScan{scanOperator: o.(scanOperator), gate: gate}
		}
	}
	loaded := newIndexedRT(t, n, cfg)
	rt := core.NewRuntime(loaded.SM, cfg, ops)
	t.Cleanup(rt.Close)
	var opened sync.Once
	open := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(open) // runs before rt.Close, so a failed check cannot hang it

	qs := make([]*core.Query, len(nodes))
	for i, node := range nodes {
		q, err := rt.Submit(context.Background(), node)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	if got := rt.Stats().SharesByOp[op]; got != int64(len(nodes)-1) {
		t.Fatalf("scan-group attaches: %d, want %d", got, len(nodes)-1)
	}
	open()
	for i, q := range qs {
		if err := q.Wait(); err != nil {
			t.Fatalf("consumer %d: %v", i, err)
		}
	}
	out := make([][]tuple.Tuple, len(qs))
	for i, q := range qs {
		rows, err := drainAll(q.Result)
		if err != nil {
			t.Fatalf("consumer %d: %v", i, err)
		}
		out[i] = rows
	}
	return out
}

// TestServePageFilterKeepsNothingAllocGate: once a scan worker's scratch has
// grown to a page, serving a page to a consumer whose filter keeps no row
// allocates nothing — no page arena, no row copies, no batch array.
func TestServePageFilterKeepsNothingAllocGate(t *testing.T) {
	rt := newRT(t, 2000, core.DefaultConfig())
	tb, err := rt.SM.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	// A query that stays live (its unread scan blocks on a full buffer)
	// to own the consumer's packet.
	node := plan.NewTableScan("t", testSchema(), nil, nil, false)
	q, err := rt.Submit(context.Background(), node)
	if err != nil {
		t.Fatal(err)
	}
	pkt, _ := rt.NewInternalPacket(q, node)
	t.Cleanup(func() { pkt.Complete(nil); q.Cancel() })

	s := newScanner(pkt.ID, heapSource{f: tb.Heap}, true, 1)
	s.pool = rt.BatchPool()
	c := &scanConsumer{pkt: pkt, filter: expr.LT(expr.Col(0), expr.CInt(-1)), remaining: []int64{1 << 40}, pending: 1}
	owed := []*scanConsumer{c}
	var sc tuple.Scratch
	serve := func() {
		if err := s.servePage(0, 1, owed, &sc); err != nil {
			t.Fatal(err)
		}
	}
	serve() // grows the scratch to a page
	if allocs := testing.AllocsPerRun(100, serve); allocs != 0 {
		t.Fatalf("serving a page whose rows are all filtered out: %v allocs, want 0", allocs)
	}
	if got := pkt.Out.Produced(); got != 0 {
		t.Fatalf("consumer received %d rows, want none", got)
	}
}
