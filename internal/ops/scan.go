// Circular table scans (paper §4.3.1), partitioned for intra-operator
// parallelism: one scan group per in-progress relation scan. The heap's page
// range splits into P contiguous partitions, each driven by its own scan
// worker with its own circular cursor; partition output merges into every
// attached consumer's tuple buffer. Late-arriving scan packets attach
// immediately — each partition records a per-consumer page debt and wraps at
// its own boundary to serve the pages the consumer missed, generalizing the
// paper's single position() cursor to one progress cursor per partition.
// Per-consumer predicates and projections are applied inside the scan
// µEngine, so packets with *different* predicates still share one page
// stream — which is exactly why QPipe keeps saving I/O in the full-workload
// experiment (Figure 12) even though qgen randomizes every query's selection
// predicates. They are applied filter first: each partition worker decodes
// a page into its own scratch, reused page to page, and copies out only the
// rows a consumer keeps (see servePage); scratch rows are never published.
// Ordered scans require page order and always run with a single partition.
package ops

import (
	"errors"
	"sync"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
)

// pageSource abstracts the page-granular data under a scan: heap files for
// table scans, B+tree leaf chains for clustered index scans. readPage
// decodes page ord's rows into s (see tuple.Scratch).
type pageSource interface {
	numPages() int64
	readPage(ord int64, s *tuple.Scratch) error
}

// partition is one contiguous page range [lo, hi) of a scan group, with its
// own circular cursor. Exactly one worker advances each partition's cursor.
type partition struct {
	lo, hi int64
	pos    int64 // next page ordinal to read
}

func (p *partition) size() int64 { return p.hi - p.lo }

// scanConsumer is one packet attached to a scan group. Page debts are per
// partition: a consumer attaching mid-scan owes each partition its full
// range, and the partition's circular wrap serves the pages it missed.
type scanConsumer struct {
	pkt       *core.Packet
	filter    expr.Pred
	project   []int
	remaining []int64 // pages still owed, per partition
	pending   int     // partitions with remaining > 0
}

// passThrough reports whether the consumer keeps every row of every page
// unchanged (no filter, no projection).
func (c *scanConsumer) passThrough() bool { return c.filter == nil && c.project == nil }

// scanner is the paper's "scanner thread", generalized to a partitioned scan
// group: it owns one cursor per partition of the page stream and multiplexes
// pages to all attached consumers. The host packet's worker drives partition
// 0; partitions 1..P-1 fan out to scan sub-workers.
type scanner struct {
	mu   sync.Mutex
	cond *sync.Cond // wakes parked partition workers on attach/teardown

	// hostID is the packet whose worker runs this scanner; every attached
	// consumer's output buffer reports it as producer so the deadlock
	// detector sees the real 1-producer-N-consumers structure (one stalled
	// scanner can otherwise hide a Waits-For cycle — e.g. a self-join whose
	// two inputs ride the same scanner).
	hostID   int64
	src      pageSource
	n        int64
	parts    []partition
	circular bool // wrap at partition end while consumers still need pages
	// spawn runs a partition worker on the µEngine's sub-worker machinery;
	// nil falls back to a plain goroutine (direct scanner tests).
	spawn func(func())
	// pool leases the per-consumer output batch arrays (nil in direct
	// scanner tests: plain allocation).
	pool *tbuf.BatchPool

	consumers []*scanConsumer
	done      bool
	err       error
}

// newScanner builds a scan group over src split into up to parallelism
// contiguous partitions. Ordered (non-circular) scans are forced to a single
// partition: interleaved partition output would break page order.
func newScanner(hostID int64, src pageSource, circular bool, parallelism int) *scanner {
	n := src.numPages()
	if !circular || parallelism < 1 {
		parallelism = 1
	}
	if int64(parallelism) > n {
		parallelism = int(n)
	}
	if parallelism < 1 {
		parallelism = 1
	}
	s := &scanner{hostID: hostID, src: src, n: n, circular: circular}
	s.cond = sync.NewCond(&s.mu)
	per := n / int64(parallelism)
	rem := n % int64(parallelism)
	lo := int64(0)
	for k := 0; k < parallelism; k++ {
		hi := lo + per
		if int64(k) < rem {
			hi++
		}
		s.parts = append(s.parts, partition{lo: lo, hi: hi, pos: lo})
		lo = hi
	}
	return s
}

// bindProducer points the consumer's output port at this scanner for the
// deadlock detector (covers the packet's own buffer and any satellites
// attached to it, now or later).
func (s *scanner) bindProducer(c *scanConsumer) {
	if c.pkt.Out != nil {
		c.pkt.Out.SetProducer(s.hostID)
	}
}

// attach adds a consumer owing every partition its full range (each
// partition's current position is its termination point). Returns partition
// 0's position. Fails once the scanner has finished, or — when requireStart
// is set (spike-overlap semantics, and unordered consumers joining a
// non-circular scanner) — unless the group is a single partition still at
// page 0: a multi-partition group interleaves pages and can never satisfy a
// consumer that needs them in order from the start.
func (s *scanner) attach(c *scanConsumer, requireStart bool) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done || s.err != nil {
		return 0, false
	}
	if requireStart && !(len(s.parts) == 1 && s.parts[0].pos == 0) {
		return 0, false
	}
	c.remaining = make([]int64, len(s.parts))
	c.pending = 0
	for k := range s.parts {
		c.remaining[k] = s.parts[k].size()
		if c.remaining[k] > 0 {
			c.pending++
		}
	}
	s.bindProducer(c)
	if c.pending == 0 {
		// Empty relation: nothing owed, serve EOF immediately.
		c.pkt.Complete(nil)
		return 0, true
	}
	s.consumers = append(s.consumers, c)
	s.cond.Broadcast()
	return s.parts[0].pos, true
}

// attachSuffix adds a consumer that only wants the remaining (suffix) part
// of an ordered scan: pages pos..n-1. Used by the merge-join split. Ordered
// scanners are always single-partition.
func (s *scanner) attachSuffix(c *scanConsumer) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done || s.err != nil || s.circular || len(s.parts) != 1 {
		return 0, false
	}
	p := &s.parts[0]
	owed := p.hi - p.pos
	if owed <= 0 {
		return 0, false
	}
	c.remaining = []int64{owed}
	c.pending = 1
	s.consumers = append(s.consumers, c)
	s.bindProducer(c)
	s.cond.Broadcast()
	return p.pos, true
}

// progress reports a single-partition scanner's cursor and total page count
// (the merge-join split's cost model). Multi-partition groups report
// ok=false: there is no single linear position to split at.
func (s *scanner) progress() (pos, total int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done || s.err != nil || len(s.parts) != 1 {
		return 0, 0, false
	}
	return s.parts[0].pos, s.n, true
}

// run drives the scan group until every consumer is served (or gone). The
// calling worker — the host packet's — drives partition 0 as the paper's
// dedicated scanner thread; the remaining partitions fan out as sub-workers.
func (s *scanner) run() error {
	s.mu.Lock()
	if len(s.consumers) == 0 {
		s.done = true
		s.cond.Broadcast()
		s.mu.Unlock()
		return nil
	}
	nparts := len(s.parts)
	s.mu.Unlock()

	var wg sync.WaitGroup
	for k := 1; k < nparts; k++ {
		wg.Add(1)
		work := func() {
			defer wg.Done()
			s.runPartition(k)
		}
		if s.spawn != nil {
			s.spawn(work)
		} else {
			go work()
		}
	}
	s.runPartition(0)
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// hungryLocked reports whether any attached consumer still owes pages to
// partition k.
func (s *scanner) hungryLocked(k int) bool {
	for _, c := range s.consumers {
		if c.remaining[k] > 0 {
			return true
		}
	}
	return false
}

// runPartition is one partition's worker loop: read the next page of the
// range (wrapping at the partition boundary on circular scans) and serve it
// to every consumer still owed pages here. With no hungry consumer the
// worker parks until a satellite attaches or the group tears down.
func (s *scanner) runPartition(k int) {
	var sc tuple.Scratch // this worker's decode space, reused page to page
	var owed []*scanConsumer
	for {
		s.mu.Lock()
		for {
			if s.done || s.err != nil {
				s.mu.Unlock()
				return
			}
			if s.hungryLocked(k) {
				break
			}
			s.cond.Wait()
		}
		p := &s.parts[k]
		if p.pos >= p.hi {
			if !s.circular {
				// Ordered scan reached EOF: any remaining consumers are
				// fully served by construction.
				consumers := s.consumers
				s.consumers = nil
				s.done = true
				s.cond.Broadcast()
				s.mu.Unlock()
				for _, c := range consumers {
					c.pkt.Complete(nil)
				}
				return
			}
			p.pos = p.lo
		}
		pg := p.pos
		p.pos++
		// Only this worker decrements remaining[k], so every consumer owed
		// this page now is still owed it when served.
		owed = owed[:0]
		for _, c := range s.consumers {
			if c.remaining[k] > 0 {
				owed = append(owed, c)
			}
		}
		s.mu.Unlock()

		if err := s.servePage(k, pg, owed, &sc); err != nil {
			s.fail(err)
			return
		}
	}
}

// servePage reads page pg and serves it to the consumers owed it on behalf
// of partition k. Filter first: unless every one of them keeps every row,
// the page decodes into the worker's scratch sc, and each consumer receives
// copies of only the rows it keeps — projected if it projects — in a chunk
// sized for exactly those rows, while pass-through consumers share one full
// copy made at most once. When all of them are pass-through the page
// decodes straight into one fresh arena that they share. Scratch rows never
// leave this function: every row Put is GC-owned and immutable.
func (s *scanner) servePage(k int, pg int64, owed []*scanConsumer, sc *tuple.Scratch) error {
	allPass := true
	for _, c := range owed {
		allPass = allPass && c.passThrough()
	}
	// full is the whole page, GC-owned, shared by the pass-through
	// consumers; fullReady tells an empty page apart from one not yet
	// copied out of scratch.
	var full []tuple.Tuple
	fullReady := allPass
	if allPass {
		var fresh tuple.Scratch
		if err := s.src.readPage(pg, &fresh); err != nil {
			return err
		}
		full = fresh.Rows
	} else if err := s.src.readPage(pg, sc); err != nil {
		return err
	}
	for _, c := range owed {
		var out tbuf.Batch
		if !c.passThrough() {
			out = keptRows(sc, c.filter, c.project, s.pool)
		} else {
			if !fullReady {
				sc.Select(nil)
				full, fullReady = sc.AppendKept(make([]tuple.Tuple, 0, len(sc.Rows)), nil), true
			}
			if len(full) > 0 {
				out = append(s.pool.GetCap(len(full)), full...)
			}
		}
		s.serve(c, k, out)
	}
	return nil
}

// serve delivers one page's kept rows (out, leased; empty when nothing
// matched) to one consumer on behalf of partition k. Only partition k's
// worker decrements remaining[k], so per-consumer page accounting needs no
// coordination beyond the scanner lock; the Put itself happens unlocked so a
// slow consumer only throttles this partition.
//
// Cancellation is detected through the consumer's output port, not the
// packet flag: a cancelled query abandons its own buffers (Put then fails),
// but the packet may still be a conduit for satellites of *other* queries
// attached to its port, which must keep receiving the full stream — eagerly
// dropping the consumer would hand those satellites a truncated stream with
// a clean EOF.
func (s *scanner) serve(c *scanConsumer, k int, out tbuf.Batch) {
	if len(out) > 0 {
		if err := c.pkt.Out.Put(out); err != nil {
			if errors.Is(err, tbuf.ErrConsumersGone) || errors.Is(err, tbuf.ErrAbandoned) {
				// Consumer gone: a clean early stop for a packet absorbed
				// elsewhere, the cancellation error for a cancelled query.
				s.detach(c, c.pkt.Query.CancelErr())
			} else {
				// Hard failure delivering pages: surface it on the
				// consumer's packet instead of reporting a clean stop.
				s.detach(c, err)
			}
			return
		}
	} else {
		if c.pkt.Cancelled() && !c.pkt.Out.PruneDead() {
			// A cancelled consumer whose filter matches nothing never Puts, so
			// the port would never report its death — probe explicitly rather
			// than scanning the rest of the table for a dead query. (A cancelled
			// consumer with live satellites still attached keeps being served:
			// it is their conduit.)
			s.detach(c, c.pkt.Query.CancelErr())
			return
		}
	}
	s.mu.Lock()
	c.remaining[k]--
	finished := false
	if c.remaining[k] == 0 {
		c.pending--
		finished = c.pending == 0
	}
	s.mu.Unlock()
	if finished {
		s.detach(c, nil)
	}
}

func (s *scanner) detach(c *scanConsumer, err error) {
	s.mu.Lock()
	for i, x := range s.consumers {
		if x == c {
			s.consumers = append(s.consumers[:i], s.consumers[i+1:]...)
			break
		}
	}
	if len(s.consumers) == 0 {
		s.done = true
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	c.pkt.Complete(err)
}

func (s *scanner) fail(err error) {
	s.mu.Lock()
	consumers := s.consumers
	s.consumers = nil
	s.done = true
	s.err = err
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, c := range consumers {
		c.pkt.Complete(err)
	}
}

// scanRegistry tracks the live scan groups per key (table, or table+index):
// pending groups, registered by their host packet at admission, and running
// ones. hosted maps each host packet to the group its Run drives.
type scanRegistry struct {
	mu       sync.Mutex
	scanners map[string][]*scanner
	hosted   map[*core.Packet]*scanner
}

func newScanRegistry() *scanRegistry {
	return &scanRegistry{scanners: make(map[string][]*scanner), hosted: make(map[*core.Packet]*scanner)}
}

// admit is a scan µEngine's OSP step: attach tries pkt on the key's live
// groups; when it attaches nowhere, the group newGroup builds (already
// serving pkt) is registered, pending until pkt's Run claims and drives it.
// One critical section, so simultaneous arrivals always share one group.
func (r *scanRegistry) admit(key string, pkt *core.Packet, attach func([]*scanner) bool, newGroup func() *scanner) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if attach(r.scanners[key]) {
		return true
	}
	s := newGroup()
	r.scanners[key] = append(r.scanners[key], s)
	r.hosted[pkt] = s
	return false
}

// claim returns the group pkt registered at admission (nil when it
// registered none: its query runs without OSP).
func (r *scanRegistry) claim(pkt *core.Packet) *scanner {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.hosted[pkt]
	delete(r.hosted, pkt)
	return s
}

func (r *scanRegistry) remove(key string, s *scanner) {
	r.mu.Lock()
	list := r.scanners[key]
	for i, x := range list {
		if x == s {
			r.scanners[key] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(r.scanners[key]) == 0 {
		delete(r.scanners, key)
	}
	r.mu.Unlock()
}

// visit iterates live scanners for a key until fn returns true.
func (r *scanRegistry) visit(key string, fn func(*scanner) bool) bool {
	r.mu.Lock()
	list := append([]*scanner(nil), r.scanners[key]...)
	r.mu.Unlock()
	for _, s := range list {
		if fn(s) {
			return true
		}
	}
	return false
}

// attachAny attaches c to the first of groups that accepts it. Ordered
// consumers have a spike WoP; unordered consumers can join a circular scan
// group anywhere but a one-shot (ordered) scanner only at its very start.
func attachAny(groups []*scanner, c *scanConsumer, ordered bool) bool {
	for _, s := range groups {
		if _, ok := s.attach(c, ordered || !s.circular); ok {
			return true
		}
	}
	return false
}

// hostGroup builds the scan group pkt hosts over src, with pkt as its first
// consumer. Extra partitions fan out to the µEngine's sub-workers.
func hostGroup(rt *core.Runtime, pkt *core.Packet, src pageSource, circular bool, parallelism int, filter expr.Pred, project []int) *scanner {
	s := newScanner(pkt.ID, src, circular, parallelism)
	s.pool = rt.BatchPool()
	if eng := rt.Engine(pkt.Node.Op()); eng != nil {
		s.spawn = eng.SpawnSub
	}
	s.attach(&scanConsumer{pkt: pkt, filter: filter, project: project}, false)
	return s
}

// driveGroup runs pkt's scan group: the one it registered at admission
// (which leaves the registry once driven), or — when its query runs without
// OSP — a private one from newGroup.
func driveGroup(reg *scanRegistry, key string, pkt *core.Packet, newGroup func() *scanner) error {
	s := reg.claim(pkt)
	if s == nil {
		s = newGroup()
	} else {
		defer reg.remove(key, s)
	}
	return s.run()
}

// ---- Table-scan µEngine -------------------------------------------------------

// heapSource reads heap-file pages.
type heapSource struct {
	f interface {
		NumPages() int64
		ReadPage(int64, *tuple.Scratch) error
	}
}

func (h heapSource) numPages() int64                          { return h.f.NumPages() }
func (h heapSource) readPage(p int64, s *tuple.Scratch) error { return h.f.ReadPage(p, s) }

// TableScanOp is the file-scan µEngine with partitioned circular-scan
// sharing.
type TableScanOp struct {
	reg *scanRegistry
}

// NewTableScanOp creates the table-scan µEngine implementation.
func NewTableScanOp() *TableScanOp { return &TableScanOp{reg: newScanRegistry()} }

// Op implements core.Operator.
func (o *TableScanOp) Op() plan.OpType { return plan.OpTableScan }

// TryAttach implements core.Attacher: circular-scan admission. An
// unordered scan packet piggybacks on any live scan group of the same table
// — pending or running — regardless of predicates or partitioning; ordered
// scans only on a single-partition group still at page 0. A packet that
// attaches nowhere registers its own group, pending until its Run.
func (o *TableScanOp) TryAttach(rt *core.Runtime, pkt *core.Packet, _ []*core.Packet) bool {
	node := pkt.Node.(*plan.TableScan)
	tb, err := rt.SM.Table(node.Table)
	if err != nil {
		return false // Run reports the error
	}
	c := &scanConsumer{pkt: pkt, filter: node.Filter, project: node.Project}
	return o.reg.admit(o.key(node), pkt,
		func(groups []*scanner) bool { return attachAny(groups, c, node.Ordered) },
		func() *scanner { return o.newGroup(rt, pkt, tb) })
}

func (o *TableScanOp) key(node *plan.TableScan) string { return "tbl:" + node.Table }

func (o *TableScanOp) newGroup(rt *core.Runtime, pkt *core.Packet, tb *sm.Table) *scanner {
	node := pkt.Node.(*plan.TableScan)
	return hostGroup(rt, pkt, heapSource{f: tb.Heap}, !node.Ordered,
		rt.ParallelismFor(pkt.Query, node.Parallelism), node.Filter, node.Project)
}

// Run implements core.Operator: the packet drives the scan group it hosts,
// serving itself and every satellite attached since admission. Partition 0
// runs on this goroutine; extra partitions fan out to scan sub-workers.
func (o *TableScanOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.TableScan)
	// No lock is taken here: the query acquired its shared lock on the
	// table at submit (§4.3.4 — "if a table is locked for writing, the scan
	// packet will simply wait, and with it all satellite ones"; the wait now
	// happens at admission). Every attached satellite's own query holds its
	// own shared lock, so the group's page reads stay covered even after
	// the host query finishes.
	tb, err := rt.SM.Table(node.Table)
	if err != nil {
		return err // TryAttach registers no group for an unknown table
	}
	// Snapshot fence: the scan group (host plus any satellites) must observe
	// one committed state of the table. The overlap chain of query-level
	// shared locks excludes committing writers for the group's whole life;
	// checking the commit counter turns a violation of that invariant into a
	// hard error instead of silently torn results.
	fence := tb.CommitSeq()
	if err := driveGroup(o.reg, o.key(node), pkt, func() *scanner { return o.newGroup(rt, pkt, tb) }); err != nil {
		return err
	}
	if end := tb.CommitSeq(); end != fence {
		return &sm.TornScanError{Table: node.Table, Start: fence, End: end}
	}
	return nil
}

var _ interface {
	core.Operator
	core.Attacher
} = (*TableScanOp)(nil)
