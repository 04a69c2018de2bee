package ops

import (
	"context"
	"io"
	"sort"
	"sync"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
)

const admissionRows = 4000

// admissionScan is an unordered scan of t whose predicate differs per i, so
// scans share only through a scan group, never by signature.
func admissionScan(i int) plan.Node {
	return plan.NewTableScan("t", testSchema(), expr.GE(expr.Col(0), expr.CInt(int64(i*97))), nil, false)
}

// standalone answers each admissionScan on a runtime without OSP.
func standalone(t *testing.T, n int) [][]int64 {
	rt := newRT(t, admissionRows, core.BaselineConfig())
	out := make([][]int64, n)
	for i := range out {
		out[i] = sortedKeys(runPlan(t, rt, admissionScan(i)))
	}
	return out
}

func sortedKeys(rows []tuple.Tuple) []int64 {
	keys := make([]int64, len(rows))
	for i, r := range rows {
		keys[i] = r[0].I
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}

// drainKeys collects a query's full answer.
func drainKeys(q *core.Query) ([]int64, error) {
	var rows []tuple.Tuple
	for {
		b, err := q.Result.Get()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, b...)
	}
	return sortedKeys(rows), q.Wait()
}

func checkAnswers(t *testing.T, qs []*core.Query, want [][]int64) {
	t.Helper()
	type answer struct {
		keys []int64
		err  error
	}
	got := make([]answer, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i].keys, got[i].err = drainKeys(q)
		}()
	}
	wg.Wait()
	for i, a := range got {
		if a.err != nil {
			t.Fatalf("query %d: %v", i, a.err)
		}
		if len(a.keys) != len(want[i]) {
			t.Fatalf("query %d: %d rows, standalone %d", i, len(a.keys), len(want[i]))
		}
		for j := range a.keys {
			if a.keys[j] != want[i][j] {
				t.Fatalf("query %d: row %d key %d, standalone %d", i, j, a.keys[j], want[i][j])
			}
		}
	}
}

// TestOSPAdmissionSimultaneousScansShareOneGroup: unordered scans of one
// table with different predicates that arrive at once must form a single
// scan group — the first admitted registers it, every other one attaches —
// and sharing must not change any answer. No result is drained before all
// are admitted, so the group cannot finish early.
func TestOSPAdmissionSimultaneousScansShareOneGroup(t *testing.T) {
	const n = 8
	want := standalone(t, n)
	rt := newRT(t, admissionRows, core.DefaultConfig())
	start := make(chan struct{})
	qs := make([]*core.Query, n)
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			q, err := rt.Submit(context.Background(), admissionScan(i))
			if err != nil {
				t.Error(err)
				return
			}
			qs[i] = q
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	checkAnswers(t, qs, want)
	// A scan packet completes its consumers before its µEngine counts it
	// as run; Close returns only after every packet goroutine has exited,
	// so the counters read below are final.
	rt.Close()
	st := rt.Stats()
	if got := st.SharesByOp[plan.OpTableScan]; got != n-1 {
		t.Fatalf("scan-group attaches: %d, want %d", got, n-1)
	}
	if got := st.EngineStats[plan.OpTableScan].Completed; got != 1 {
		t.Fatalf("scan packets run: %d, want 1 (one group)", got)
	}
}

// scanOperator is a scan µEngine: an operator with its own OSP admission.
type scanOperator interface {
	core.Operator
	core.Attacher
}

// gatedScan holds a scan µEngine's Run until gate closes, so a test can act
// between a scan packet's admission and its Run.
type gatedScan struct {
	scanOperator
	gate chan struct{}
}

func (g *gatedScan) Run(rt *core.Runtime, pkt *core.Packet) error {
	<-g.gate
	return g.scanOperator.Run(rt, pkt)
}

// TestOSPAdmissionPendingGroupHostCancelled: satellites attached to a scan
// group that is still pending — its host packet admitted but not yet run —
// must get their full answers even when the host's query is cancelled
// before its Run starts.
func TestOSPAdmissionPendingGroupHostCancelled(t *testing.T) {
	const n = 4
	want := standalone(t, n+1)[1:]
	gate := make(chan struct{})
	ops := All()
	for i, op := range ops {
		if ts, ok := op.(*TableScanOp); ok {
			ops[i] = &gatedScan{scanOperator: ts, gate: gate}
		}
	}
	rt := newRT(t, admissionRows, core.DefaultConfig())
	rt = core.NewRuntime(rt.SM, core.DefaultConfig(), ops)
	t.Cleanup(rt.Close)
	var opened sync.Once
	open := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(open) // runs before rt.Close, so a failed check cannot hang it

	host, err := rt.Submit(context.Background(), admissionScan(0))
	if err != nil {
		t.Fatal(err)
	}
	sats := make([]*core.Query, n)
	for i := range sats {
		if sats[i], err = rt.Submit(context.Background(), admissionScan(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.Stats().SharesByOp[plan.OpTableScan]; got != n {
		t.Fatalf("attaches to the pending group: %d, want %d", got, n)
	}
	host.Cancel()
	open()
	checkAnswers(t, sats, want)
	if err := host.Wait(); err == nil {
		t.Fatal("cancelled host query reported success")
	}
}
