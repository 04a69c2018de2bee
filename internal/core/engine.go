// µEngine: the per-operator micro-engine (paper Figure 6a). Each µEngine
// admits packets through one OSP step — attach to overlapping in-progress
// work, else register as work others can attach to — and runs every
// admitted packet on its own goroutine.
package core

import (
	"sync"
	"sync/atomic"

	"qpipe/internal/plan"
)

// Operator is the relational code a µEngine runs per packet. Run consumes
// pkt.Inputs and writes to pkt.Out; the engine closes pkt.Out when Run
// returns (clean EOF on nil error).
type Operator interface {
	// Op names the µEngine this operator serves.
	Op() plan.OpType
	// Run executes one packet to completion.
	Run(rt *Runtime, pkt *Packet) error
}

// Attacher is implemented by operators whose OSP sharing is not
// signature-exact: the sort file streamer (§3.2 materialization) and the
// scan µEngines' circular scan groups, which share one page stream between
// packets with *different* predicates (§4.3.1). The µEngine calls TryAttach
// inside its admission critical section, after no in-flight packet with
// pkt's signature could absorb it; hosts are those signature-matching
// packets (other queries', OSP-enabled, not cancelled). TryAttach returns
// true when pkt was absorbed — the operator then owns its completion and
// the µEngine never runs it. Returning false, it may prepare pkt to host
// (a scan packet registers its pending scan group). It runs under the
// µEngine's lock, so it must not wait on other packets or queries; a page
// read is the most it may do.
type Attacher interface {
	TryAttach(rt *Runtime, pkt *Packet, hosts []*Packet) bool
}

// EngineStats counts a µEngine's activity.
type EngineStats struct {
	Enqueued   int64
	Completed  int64
	Satellites int64 // packets absorbed by OSP instead of executing
	SubWorkers int64 // sub-workers spawned by running packets (scan partitions)
	Errors     int64
	Panics     int64 // operator panics quarantined (packet failed, µEngine kept serving)
}

// MicroEngine serves one operator type. Every admitted packet runs on its
// own goroutine — Go's analogue of the paper's per-µEngine thread pool,
// without pool-sizing deadlocks (a plan stacking two nodes of one type,
// e.g. a 3-way merge join, starves a pool of one).
type MicroEngine struct {
	rt   *Runtime
	op   plan.OpType
	impl Operator

	mu       sync.Mutex
	inflight map[string][]*Packet // sig -> admitted, unfinished host packets

	wg sync.WaitGroup

	enq    atomic.Int64
	done   atomic.Int64
	sats   atomic.Int64
	subs   atomic.Int64
	errs   atomic.Int64
	panics atomic.Int64
}

func newMicroEngine(rt *Runtime, impl Operator) *MicroEngine {
	return &MicroEngine{rt: rt, op: impl.Op(), impl: impl, inflight: make(map[string][]*Packet)}
}

// Stats snapshots the engine counters.
func (e *MicroEngine) Stats() EngineStats {
	return EngineStats{
		Enqueued:   e.enq.Load(),
		Completed:  e.done.Load(),
		Satellites: e.sats.Load(),
		SubWorkers: e.subs.Load(),
		Errors:     e.errs.Load(),
		Panics:     e.panics.Load(),
	}
}

// SpawnSub runs fn as a sub-worker of this µEngine on behalf of a running
// packet — the partitioned scan's fan-out (one sub-worker per extra
// partition). Sub-workers are tracked by the engine's WaitGroup so close
// waits for them. Callers must guarantee fn returns; the scan group's
// teardown does.
func (e *MicroEngine) SpawnSub(fn func()) {
	e.subs.Add(1)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		fn()
	}()
}

// Enqueue admits a packet (paper §4.3: "every time a new packet queues up
// in a µEngine, we scan the queue with the existing packets to check for
// overlapping work"). Attaching to a host and registering as one happen in
// one critical section, so simultaneous arrivals always find each other.
// Lock order: e.mu → Packet.satMu → SharedOut (operator locks, e.g. the
// scan registry, nest between e.mu and satMu).
func (e *MicroEngine) Enqueue(pkt *Packet) {
	e.enq.Add(1)
	e.mu.Lock()
	if e.rt.OSPAllowed(pkt.Query) && e.attachLocked(pkt) {
		e.mu.Unlock()
		e.absorb(pkt)
		return
	}
	pkt.setState(PacketQueued)
	e.inflight[pkt.Sig] = append(e.inflight[pkt.Sig], pkt)
	e.wg.Add(1)
	e.mu.Unlock()
	go func() {
		defer e.wg.Done()
		e.runPacket(pkt)
	}()
}

// attachLocked tries the signature-exact attach against every in-flight
// host, then the operator's own sharing (Attacher). A host attaches while
// it has produced nothing (full/step overlap) or while all its output still
// fits the replay window (the buffering enhancement); AbsorbSatellite makes
// that commit atomic against the host's teardown.
func (e *MicroEngine) attachLocked(pkt *Packet) bool {
	var hosts []*Packet
	for _, host := range e.inflight[pkt.Sig] {
		// A host whose query opted out of OSP (WithoutOSP) must not serve
		// satellites either — opting out is bidirectional.
		if host.Query == pkt.Query || host.Cancelled() || host.Query.Opts.DisableOSP {
			continue
		}
		if host.AbsorbSatellite(pkt) {
			return true
		}
		hosts = append(hosts, host)
	}
	a, ok := e.impl.(Attacher)
	return ok && a.TryAttach(e.rt, pkt, hosts)
}

// absorb completes the satellite bookkeeping after a successful attach,
// outside e.mu: everything *beneath* the satellite is terminated (OSP
// coordinator steps 1-2, Figure 6b) — but not the satellite packet itself,
// whose output port stays live (its host, a scan group or a sort file
// streamer feeds it).
func (e *MicroEngine) absorb(sat *Packet) {
	for _, in := range sat.Inputs {
		in.Abandon()
	}
	for _, c := range sat.Children {
		c.CancelSubtree()
		c.markDone(nil, PacketCancelled)
		sat.Query.Stats.CancelledSubtreePackets.Add(1)
	}
	sat.Query.Stats.SatelliteAttaches.Add(1)
	e.sats.Add(1)
	e.rt.noteShare(e.op)
}

func (e *MicroEngine) removeInflight(pkt *Packet) {
	e.mu.Lock()
	defer e.mu.Unlock()
	list := e.inflight[pkt.Sig]
	for i, p := range list {
		if p == pkt {
			e.inflight[pkt.Sig] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(e.inflight[pkt.Sig]) == 0 {
		delete(e.inflight, pkt.Sig)
	}
}

func (e *MicroEngine) runPacket(pkt *Packet) {
	defer e.removeInflight(pkt)
	// A packet cancelled before it starts still runs: operators observe
	// cancellation through their abandoned ports and flags and return
	// promptly, and a scan packet must drive the scan group it registered
	// at admission for the satellites already attached to it.
	pkt.setState(PacketRunning)
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				// Panic quarantine: the packet fails with a typed error, its
				// satellites are detached and rescued below exactly like a
				// cancelled host's, and this goroutine returns normally so the µEngine
				// keeps serving subsequent packets.
				err = &PanicError{Op: e.op, Value: r}
				e.panics.Add(1)
			}
		}()
		return e.impl.Run(e.rt, pkt)
	}()
	if err != nil {
		// A cancelled query tears its buffers down underneath the operator,
		// so Run surfaces whatever side it tripped over first (an abandoned
		// input, a dead output port). Normalize to the cancellation error:
		// the caller cancelled, and that — not the teardown shrapnel — is
		// the packet's terminal cause. (CancelErr, not ctx.Err(): a packet
		// legitimately outliving an already-finished query must keep its own
		// error untouched.)
		if cerr := pkt.Query.CancelErr(); cerr != nil {
			err = cerr
		}
		e.errs.Add(1)
	}
	e.done.Add(1)
	// Abandon any input not drained to EOF: operators may legitimately
	// finish early (a merge join stops when one side is exhausted), and
	// their producers must not stay blocked on full buffers forever.
	for _, in := range pkt.Inputs {
		in.Abandon()
	}
	if err != nil || pkt.Cancelled() {
		e.rescueSatellites(pkt)
	}
	pkt.Out.Close(err)
	pkt.finish(err)
}

// rescueSatellites re-homes live satellites of a host that is dying before
// producing any output — typically a host whose own query was cancelled
// after the absorb, which is the host's failure, not the satellites'. Each
// rescued satellite's plan subtree is re-dispatched inside its own query and
// pumped into the satellite's existing output port. A host that already
// produced output cannot be rescued from: its satellites hold that prefix,
// and re-running would duplicate tuples — they stay absorbed and inherit the
// host's terminal state. Must run before the host closes its port. Sealing
// the satellite list first closes the absorb race: an AbsorbSatellite
// against this dying host after the seal fails, and its packet is admitted
// as a host instead of missing both rescue and finish.
func (e *MicroEngine) rescueSatellites(pkt *Packet) {
	sats := pkt.sealSatellites()
	if pkt.Out.Produced() > 0 {
		return
	}
	for _, sat := range sats {
		select {
		case <-sat.Done():
			// Already finalized — e.g. the host completed through an
			// operator path (a scan group's Complete) before runPacket
			// observed the cancellation, and finish released the satellites
			// with a genuine result. Re-dispatching would launch a ghost
			// subtree whose output nobody reads.
			continue
		default:
		}
		if sat.Cancelled() {
			continue
		}
		pkt.removeSatellite(sat)
		pkt.Out.Detach(sat.OutBuf)
		sat.host.Store(nil)
		sat.setState(PacketQueued)
		e.rt.rescue(sat)
	}
}

func (e *MicroEngine) close() { e.wg.Wait() }
