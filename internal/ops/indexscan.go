// Index-scan µEngine. Two access paths (paper §3.2):
//
//   - Clustered index scans stream B+tree leaves in key order. Unordered
//     consumers get linear overlap via the same circular scanner as table
//     scans (over leaves instead of heap pages); ordered consumers have a
//     spike WoP, except that the merge-join µEngine can attach to an
//     in-progress ordered scan's *suffix* and complete the prefix with a
//     second packet (§4.3.2, Figure 9) through AttachOrderedSuffix.
//   - Unclustered index scans run in two phases: probe the index building a
//     RID list (full overlap — shareable for its whole duration via the
//     default signature attach), sort RIDs in ascending page order to avoid
//     revisiting heap pages, then fetch.
package ops

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/btree"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
)

// leafSource adapts a clustered B+tree's leaf chain to the circular
// scanner's page abstraction.
type leafSource struct {
	tree  *btree.Tree
	pnos  []int64
	ncols int
}

func (l *leafSource) numPages() int64 { return int64(len(l.pnos)) }

func (l *leafSource) readPage(ord int64, s *tuple.Scratch) error {
	return l.tree.ReadLeafTuples(l.pnos[ord], l.ncols, s)
}

// IndexScanOp is the index-scan µEngine.
type IndexScanOp struct {
	reg *scanRegistry

	// leafCache memoizes leaf-page-number lists per tree (invalidated
	// never: experiment tables are bulk-loaded once; updates go to heaps).
	leafMu    sync.Mutex
	leafCache map[string][]int64
}

// NewIndexScanOp creates the index-scan µEngine implementation.
func NewIndexScanOp() *IndexScanOp {
	return &IndexScanOp{reg: newScanRegistry(), leafCache: make(map[string][]int64)}
}

// Op implements core.Operator.
func (o *IndexScanOp) Op() plan.OpType { return plan.OpIndexScan }

// TryAttach implements core.Attacher for full clustered scans — the only
// index scans that run as scan groups: linear overlap on a live group of
// the same index when unordered, spike when ordered. For ordered
// *selective* scans whose spike WoP has expired, it applies the paper's
// materialization enhancement (§4.3.2 second case / Figure 4b): the packet
// attaches to the in-progress scan anyway, saving the cheap qualifying
// suffix tuples out of order; when its own fresh scan of the missed prefix
// completes (delivered in order), the saved results — which are already in
// key order, being leaf-ordered — complete the stream. A packet that
// attaches nowhere registers its own group, pending until its Run. The
// first admission per index reads the tree's leaf list (leafCache).
func (o *IndexScanOp) TryAttach(rt *core.Runtime, pkt *core.Packet, _ []*core.Packet) bool {
	node := pkt.Node.(*plan.IndexScan)
	tb, err := rt.SM.Table(node.Table)
	if err != nil {
		return false
	}
	src := o.fullScan(tb, node)
	if src == nil {
		return false
	}
	c := &scanConsumer{pkt: pkt, filter: node.Filter, project: node.Project}
	return o.reg.admit(o.key(node), pkt, func(groups []*scanner) bool {
		if attachAny(groups, c, node.Ordered) {
			return true
		}
		return node.Ordered && node.Filter != nil && o.tryMaterializedOrderedShare(rt, pkt, groups)
	}, func() *scanner { return o.newGroup(rt, pkt, src) })
}

// fullScan returns the leaf source of a full clustered scan, or nil for
// every other index scan (bounded, partial, unclustered, or invalid — Run
// reports the latter's error).
func (o *IndexScanOp) fullScan(tb *sm.Table, node *plan.IndexScan) *leafSource {
	tr := tb.Clustered
	if !node.Clustered || tr == nil || tb.ClusteredKey != node.Col || node.Lo.IsValid() || node.Hi.IsValid() || node.LeafFrom > 0 {
		return nil
	}
	pnos, err := o.leaves(tr)
	if err != nil || (node.LeafTo >= 0 && node.LeafTo < len(pnos)) {
		return nil
	}
	return &leafSource{tree: tr, pnos: pnos, ncols: tb.Schema.Len()}
}

// newGroup builds the scan group pkt hosts. Unordered full clustered scans
// partition like table scans (leaf order is irrelevant to their consumers);
// ordered scans stay single-partition so the leaf stream keeps key order
// (newScanner enforces this).
func (o *IndexScanOp) newGroup(rt *core.Runtime, pkt *core.Packet, src *leafSource) *scanner {
	node := pkt.Node.(*plan.IndexScan)
	return hostGroup(rt, pkt, src, !node.Ordered, rt.ParallelismFor(pkt.Query, 0), node.Filter, node.Project)
}

// tryMaterializedOrderedShare implements the §4.3.2 materialization path
// for a selective order-sensitive scan: piggyback on an in-progress ordered
// scan among groups for the suffix (materializing qualifying tuples), read
// the missed prefix fresh and in order, then emit the saved suffix — whose
// leaf order IS key order — giving the consumer a fully ordered stream
// while skipping the suffix's I/O.
func (o *IndexScanOp) tryMaterializedOrderedShare(rt *core.Runtime, pkt *core.Packet, groups []*scanner) bool {
	node := pkt.Node.(*plan.IndexScan)
	collector, colBuf := rt.NewInternalPacket(pkt.Query, node)
	colBuf.SetUnbounded() // materialization: never throttle the host scan
	start, ok := attachSuffixAny(groups, &scanConsumer{pkt: collector, filter: node.Filter, project: node.Project})
	if !ok || start == 0 {
		collector.Complete(nil)
		return false
	}
	go func() {
		err := o.runMaterializedOrdered(rt, pkt, node, colBuf, int(start))
		pkt.Complete(err)
	}()
	return true
}

func (o *IndexScanOp) runMaterializedOrdered(rt *core.Runtime, pkt *core.Packet, node *plan.IndexScan, colBuf *tbuf.Buffer, start int) error {
	tb, err := rt.SM.Table(node.Table)
	if err != nil {
		return err
	}
	tr := tb.Clustered
	pnos, err := o.leaves(tr)
	if err != nil {
		return err
	}
	// Phase 1: read the missed prefix [0, start) fresh, in key order,
	// streaming straight to the consumer.
	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	pool := rt.BatchPool()
	var sc tuple.Scratch
	for ord := 0; ord < start && ord < len(pnos); ord++ {
		if cerr := pkt.Query.CancelErr(); cerr != nil {
			return cerr
		}
		if pkt.Cancelled() {
			return nil
		}
		if err := tr.ReadLeafTuples(pnos[ord], tb.Schema.Len(), &sc); err != nil {
			return err
		}
		if err := emitBatch(em, pool, keptRows(&sc, node.Filter, node.Project, pool)); err != nil {
			return emitResult(err)
		}
	}
	// Phase 2: the saved suffix results arrive (and are drained) in leaf
	// order == key order; append them after the prefix.
	for {
		batch, err := colBuf.Get()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := emitBatch(em, pool, batch); err != nil {
			return emitResult(err)
		}
	}
	return emitResult(em.flush())
}

func (o *IndexScanOp) key(node *plan.IndexScan) string {
	return "cix:" + node.Table + ":" + node.Col
}

func (o *IndexScanOp) leaves(tr *btree.Tree) ([]int64, error) {
	o.leafMu.Lock()
	if pnos, ok := o.leafCache[tr.Name]; ok {
		o.leafMu.Unlock()
		return pnos, nil
	}
	o.leafMu.Unlock()
	pnos, err := tr.LeafPageNos()
	if err != nil {
		return nil, err
	}
	o.leafMu.Lock()
	o.leafCache[tr.Name] = pnos
	o.leafMu.Unlock()
	return pnos, nil
}

// ScanProgress reports an in-progress full clustered ordered scan's
// position and total leaf count for the merge-join split's cost model.
// ok is false when no shareable ordered scan is in progress.
func (o *IndexScanOp) ScanProgress(table, col string) (pos, total int64, ok bool) {
	o.reg.visit("cix:"+table+":"+col, func(s *scanner) bool {
		if s.circular {
			return false
		}
		p, n, alive := s.progress()
		if !alive || p == 0 || p >= n {
			return false
		}
		pos, total, ok = p, n, true
		return true
	})
	return pos, total, ok
}

// AttachOrderedSuffix attaches a consumer to an in-progress ordered
// clustered scan, receiving leaves from the scanner's current position to
// the end (in key order). Returns the start position. The caller owns the
// complement (leaves 0..start-1). This is the §4.3.2 mechanism.
func (o *IndexScanOp) AttachOrderedSuffix(table, col string, pkt *core.Packet, filter expr.Pred, project []int) (int64, bool) {
	o.reg.mu.Lock()
	defer o.reg.mu.Unlock()
	return attachSuffixAny(o.reg.scanners["cix:"+table+":"+col], &scanConsumer{pkt: pkt, filter: filter, project: project})
}

// attachSuffixAny attaches c to the unread suffix of the first ordered
// (one-shot) group that has one, returning where the suffix starts.
func attachSuffixAny(groups []*scanner, c *scanConsumer) (int64, bool) {
	for _, s := range groups {
		if start, ok := s.attachSuffix(c); ok {
			return start, true
		}
	}
	return 0, false
}

// Run implements core.Operator.
func (o *IndexScanOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.IndexScan)
	tb, err := rt.SM.Table(node.Table)
	if err != nil {
		return err
	}
	// The query's shared lock on the table was acquired at submit (see
	// Runtime.Submit's query-level read locking). The fence mirrors the
	// table-scan one: index scans and their satellites read one committed
	// state, pinned by the commit counter.
	fence := tb.CommitSeq()
	if node.Clustered {
		err = o.runClustered(rt, pkt, tb, node)
	} else {
		err = o.runUnclustered(rt, pkt, tb, node)
	}
	if err != nil {
		return err
	}
	if end := tb.CommitSeq(); end != fence {
		return &sm.TornScanError{Table: node.Table, Start: fence, End: end}
	}
	return nil
}

func (o *IndexScanOp) runClustered(rt *core.Runtime, pkt *core.Packet, tb *sm.Table, node *plan.IndexScan) error {
	tr := tb.Clustered
	if tr == nil || tb.ClusteredKey != node.Col {
		return fmt.Errorf("ops: table %q has no clustered index on %q", node.Table, node.Col)
	}
	ncols := tb.Schema.Len()
	if node.Lo.IsValid() || node.Hi.IsValid() {
		// Bounded clustered scan: stream the B+tree range directly (no
		// page-stream sharing; signature-identical packets still dedupe).
		// Each entry decodes into scratch; only rows the filter keeps are
		// copied out.
		em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
		var sc tuple.Scratch
		var arena tuple.RowArena
		var derr error
		err := tr.Range(node.Lo, node.Hi, func(_ tuple.Value, payload []byte) bool {
			sc.Reset(1, ncols)
			if derr = sc.Decode(payload, ncols); derr != nil {
				return false
			}
			row := sc.Rows[0]
			if node.Filter != nil && !node.Filter.Test(row) {
				return true
			}
			if pkt.Cancelled() || em.add(arena.Copy(row, node.Project)) != nil {
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if derr != nil {
			return derr
		}
		if cerr := pkt.Query.CancelErr(); cerr != nil {
			return cerr
		}
		// The emitter's error is sticky, so an add failure that stopped the
		// range callback resurfaces here instead of vanishing as a clean EOF.
		return emitResult(em.flush())
	}
	pnos, err := o.leaves(tr)
	if err != nil {
		return err
	}
	src := &leafSource{tree: tr, pnos: pnos, ncols: ncols}
	// LeafFrom/LeafTo restrict a partial scan (the complement packet the
	// merge-join split dispatches).
	lo, hi := node.LeafFrom, node.LeafTo
	if hi < 0 || hi > len(pnos) {
		hi = len(pnos)
	}
	if lo < 0 {
		lo = 0
	}
	if lo > 0 || hi < len(pnos) {
		// Partial scans stream their range directly and never host sharing.
		em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
		pool := rt.BatchPool()
		var sc tuple.Scratch
		for ord := lo; ord < hi; ord++ {
			if cerr := pkt.Query.CancelErr(); cerr != nil {
				return cerr
			}
			if pkt.Cancelled() {
				return nil
			}
			if err := src.readPage(int64(ord), &sc); err != nil {
				return err
			}
			if err := emitBatch(em, pool, keptRows(&sc, node.Filter, node.Project, pool)); err != nil {
				return emitResult(err)
			}
		}
		return emitResult(em.flush())
	}
	return driveGroup(o.reg, o.key(node), pkt, func() *scanner { return o.newGroup(rt, pkt, src) })
}

func (o *IndexScanOp) runUnclustered(rt *core.Runtime, pkt *core.Packet, tb *sm.Table, node *plan.IndexScan) error {
	tr := tb.Unclustered[node.Col]
	if tr == nil {
		return fmt.Errorf("ops: table %q has no unclustered index on %q", node.Table, node.Col)
	}
	// Phase 1: probe the index, building the RID list (with each entry's
	// key — see the ghost re-check below). Full overlap: any identical
	// packet arriving now attaches at admission since no output has been
	// produced.
	type entry struct {
		rid heap.RID
		key tuple.Value
	}
	var entries []entry
	var derr error
	err := tr.Range(node.Lo, node.Hi, func(key tuple.Value, payload []byte) bool {
		rid, e := sm.DecodeRID(payload)
		if e != nil {
			derr = e
			return false
		}
		entries = append(entries, entry{rid: rid, key: key})
		return !pkt.Cancelled()
	})
	if err != nil {
		return err
	}
	if derr != nil {
		return derr
	}
	if !node.Ordered {
		// Sort RIDs in ascending page order to visit each heap page once.
		sort.Slice(entries, func(i, j int) bool { return entries[i].rid.Less(entries[j].rid) })
	}
	// Phase 2: fetch. Unclustered indexes are maintained lazily under
	// transactional mutation: deletes leave the entry behind (the heap slot
	// is tombstoned) and updates that change the key add a new entry without
	// removing the old. Both ghosts are filtered here — a tombstoned RID is
	// skipped, and a fetched row whose indexed column no longer equals the
	// entry's key belongs to a newer version reachable through its own entry.
	// Each fetched row decodes into scratch; only rows the filter keeps are
	// copied out.
	keyIx := tb.Schema.MustColIndex(node.Col)
	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	var sc tuple.Scratch
	var arena tuple.RowArena
	for _, e := range entries {
		if cerr := pkt.Query.CancelErr(); cerr != nil {
			return cerr
		}
		if pkt.Cancelled() {
			return nil
		}
		if err := tb.Heap.ReadTupleInto(e.rid, &sc); err != nil {
			if errors.Is(err, heap.ErrDeleted) {
				continue
			}
			return err
		}
		row := sc.Rows[0]
		if tuple.Compare(row[keyIx], e.key) != 0 {
			continue // ghost: key changed since this entry was made
		}
		if node.Filter == nil || node.Filter.Test(row) {
			if err := em.add(arena.Copy(row, node.Project)); err != nil {
				return emitResult(err)
			}
		}
	}
	return emitResult(em.flush())
}

var _ interface {
	core.Operator
	core.Attacher
} = (*IndexScanOp)(nil)
