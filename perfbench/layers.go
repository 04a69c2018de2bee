package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"qpipe"
)

// counters is a snapshot of every counter the engine already exports,
// read through its public API before and after a measurement phase.
type counters struct {
	eng    qpipe.Stats
	disk   qpipe.DiskStats
	hits   int64 // buffer pool
	misses int64
	evicts int64
	server qpipe.ServerStats
	mem    runtime.MemStats
}

func snapshot(db *qpipe.DB, srv *qpipe.Server) counters {
	c := counters{eng: db.Stats(), disk: db.DiskStats()}
	ps := db.Engine().Runtime().SM.Pool.Stats()
	c.hits, c.misses, c.evicts = ps.Hits, ps.Misses, ps.Evictions
	if srv != nil {
		c.server = srv.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// walLSN reads the write-ahead log's end position; positions within one
// segment differ by the bytes appended between them.
func walLSN(db *qpipe.DB) int64 { return db.Engine().Runtime().SM.WAL().LSN() }

// walBytes is the log growth between two positions, or -1 when a segment
// boundary lies between them (the position encodes segment<<32 | offset).
func walBytes(before, after int64) int64 {
	if before>>32 != after>>32 {
		return -1
	}
	return after - before
}

// heapSampler samples the live heap every heapEvery during a phase without
// stopping the world (runtime/metrics, not ReadMemStats).
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64
}

const heapEvery = 5 * time.Millisecond

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the heap's peak in bytes, taken as
// the 99th percentile of the samples: the single highest sample depends on
// where the GC cycles happened to fall and varies far more between runs.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return percentile(h.samples, 99)
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opNames are the µEngine operator types whose OSP shares are reported.
var opNames = []string{"tscan", "filter", "project", "sort", "hjoin", "mjoin", "agg", "groupby"}

// perLayer derives the per-layer metrics of a traced phase, plain being the
// untraced phase run just before it on the same instance.
func perLayer(plain, rec *recorder, lt layerTimes) map[string]metric {
	b, a := rec.before, rec.after
	q := float64(len(rec.reads))
	commits := float64(len(rec.commits))
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("blocks_read_per_query", ratio(float64(a.disk.Reads-b.disk.Reads), q), "blocks")
	put("failed_frac", ratio(float64(rec.failed), float64(rec.attempted)), "frac")
	put("commit_p50_ms", percentile(millis(rec.commits), 50), "ms")
	put("commit_p95_ms", percentile(millis(rec.commits), 95), "ms")

	for _, s := range []string{"sql.parse", "plan.prepare", "core.submit", "core.first_batch", "core.drain",
		"sm.tx_exec", "wal.commit", "wire.query", "wire.first_batch", "wire.drain"} {
		put(s+"_p50_us", lt.p50(s), "us")
		put(s+"_self_share", lt.selfShare(s), "frac")
	}
	var keys, sigs int
	for _, s := range rec.sigs {
		keys++
		sigs += len(s)
	}
	put("plan.distinct_signatures", ratio(float64(sigs), float64(keys)), "per_stmt")

	var shares, packets, subs int64
	byOp := map[string]int64{}
	for op, n := range a.eng.SharesByOp {
		d := n - b.eng.SharesByOp[op]
		byOp[string(op)] = d
		shares += d
	}
	for _, op := range opNames {
		put("core.shares."+op, ratio(float64(byOp[op]), q), "per_query")
	}
	for op, es := range a.eng.EngineStats {
		packets += es.Enqueued - b.eng.EngineStats[op].Enqueued
		subs += es.SubWorkers - b.eng.EngineStats[op].SubWorkers
	}
	put("core.shares_per_query", ratio(float64(shares), q), "per_query")
	put("core.packets_per_query", ratio(float64(packets), q), "per_query")
	put("core.subworkers_per_query", ratio(float64(subs), q), "per_query")
	put("core.shed", float64(a.eng.Shed-b.eng.Shed), "count")
	put("core.deadlocks", float64(a.eng.DeadlocksSeen-b.eng.DeadlocksSeen), "count")
	put("core.materialized", float64(a.eng.Materialized-b.eng.Materialized), "count")
	put("core.panics", float64(a.eng.Panics-b.eng.Panics), "count")

	hits, misses := float64(a.hits-b.hits), float64(a.misses-b.misses)
	put("buffer.hit_ratio", ratio(hits, hits+misses), "frac")
	put("buffer.misses_per_query", ratio(misses, q), "pages")
	put("buffer.evictions_per_query", ratio(float64(a.evicts-b.evicts), q), "pages")

	reads := float64(a.disk.Reads - b.disk.Reads)
	put("disk.sim_ms_per_query", ratio(float64(a.disk.SleepTotal-b.disk.SleepTotal)/float64(time.Millisecond), q), "ms")
	put("disk.seq_read_frac", ratio(float64(a.disk.SeqReads-b.disk.SeqReads), reads), "frac")
	put("disk.writes_per_commit", ratio(float64(a.disk.Writes-b.disk.Writes), commits), "blocks")

	var walSum int64
	for _, w := range rec.walDiff {
		walSum += w
	}
	put("wal.bytes_per_commit", ratio(float64(walSum), float64(len(rec.walDiff))), "bytes")
	put("sm.torn_scans", float64(rec.torn), "count")

	put("wire.rows_per_batch", ratio(float64(a.server.RowsSent-b.server.RowsSent), float64(a.server.BatchesSent-b.server.BatchesSent)), "rows")
	put("wire.errors_sent", float64(a.server.ErrorsSent-b.server.ErrorsSent), "count")

	put("gc.allocs_per_query", ratio(float64(a.mem.Mallocs-b.mem.Mallocs), q), "count")
	put("gc.bytes_per_query", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), q), "bytes")
	put("gc.pause_ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6, "ms")
	put("gc.cycles", float64(a.mem.NumGC-b.mem.NumGC), "count")

	put("check.answer_variants", float64(plain.answerVariants()+rec.answerVariants()), "count")
	put("trace.overhead_frac", 1-ratio(qps(rec), qps(plain)), "frac")
	put("trace.self_sum_err", lt.maxSelfErr, "frac")
	put("gen.late_ms", mean(millis(rec.late)), "ms")
	return m
}

// endToEnd derives the user-visible metrics of an untraced phase.
func endToEnd(rec *recorder, setupS float64) map[string]metric {
	lat := millis(rec.reads)
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"throughput_qps": {qps(rec), "1/s"},
		"query_p50_ms":   {percentile(lat, 50), "ms"},
		"query_p95_ms":   {percentile(lat, 95), "ms"},
		"heap_peak_mb":   {rec.heapPeak / (1 << 20), "MiB"},
	}
}

func qps(rec *recorder) float64 { return ratio(float64(len(rec.reads)), rec.elapsed.Seconds()) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
