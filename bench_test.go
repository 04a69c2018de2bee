// Benchmarks regenerating every table and figure in the paper's evaluation
// (§5). One benchmark per figure — see DESIGN.md §4 for the index. Each
// reports the figure's headline metric(s) via b.ReportMetric so `go test
// -bench=.` prints the reproduced numbers; `cmd/qpipe-bench` prints the
// full curves.
//
// These run at SmallScale (tens of milliseconds per query). They reproduce
// the paper's *shapes* — who wins and by what factor — not its 2005
// absolute numbers (see EXPERIMENTS.md).
package qpipe_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qpipe"
	"qpipe/internal/expr"
	"qpipe/internal/harness"
	"qpipe/internal/plan"
	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
	"qpipe/internal/workload/tpch"
)

// benchScale keeps the figure benches fast enough for -bench=. runs.
func benchScale() harness.Scale {
	sc := harness.SmallScale()
	sc.SF = 0.0015
	sc.BigRows = 2500
	sc.Spindles = 1
	return sc
}

// BenchmarkFig01aTimeBreakdown reproduces Figure 1a: the per-table I/O
// breakdown of five representative TPC-H queries on the conventional
// engine. Reported metric: mean fraction of blocks read from LINEITEM.
func BenchmarkFig01aTimeBreakdown(b *testing.B) {
	env := mustTPCH(b, benchScale(), false)
	defer env.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := harness.Fig1aTimeBreakdown(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			sum := 0.0
			for _, p := range fig.Series[0].Points {
				sum += p.Y
			}
			b.ReportMetric(sum/float64(len(fig.Series[0].Points)), "lineitem-frac")
			b.Log("\n" + fig.Format())
		}
	}
}

// BenchmarkFig04aWoPClasses reproduces Figure 4a: the measured windows of
// opportunity per overlap class. Reported metrics: mean Q2 gain per class.
func BenchmarkFig04aWoPClasses(b *testing.B) {
	env := mustTPCH(b, benchScale(), true)
	defer env.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := harness.Fig4aWindowsOfOpportunity(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range fig.Series {
				mean := 0.0
				for _, p := range s.Points {
					mean += p.Y
				}
				b.ReportMetric(mean/float64(len(s.Points)), s.Label+"-gain")
			}
			b.Log("\n" + fig.Format())
		}
	}
}

// BenchmarkFig08CircularScan reproduces Figure 8: blocks read vs
// interarrival for concurrent Q6 clients. Reported metric: OSP's I/O as a
// fraction of baseline's at mid interarrival.
func BenchmarkFig08CircularScan(b *testing.B) {
	env := mustTPCH(b, benchScale(), false)
	defer env.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := harness.Fig8CircularScan(env, []int{4}, []float64{0.2, 0.5, 0.8})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fig := figs[0]
			base, osp := fig.Series[0].Points, fig.Series[1].Points
			b.ReportMetric(osp[1].Y/base[1].Y, "io-ratio@0.5")
			b.Log("\n" + fig.Format())
		}
	}
}

// BenchmarkFig09OrderedScans reproduces Figure 9: the ordered-scan
// merge-join split. Reported metric: baseline/OSP total-response speedup at
// 0.4 interarrival.
func BenchmarkFig09OrderedScans(b *testing.B) {
	env := mustTPCH(b, benchScale(), true)
	defer env.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := harness.Fig9OrderedScans(env, []float64{0.4})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSpeedup(b, fig, 0)
		}
	}
}

// BenchmarkFig10SortMerge reproduces Figure 10: shared sorts + merge join
// on the Wisconsin benchmark.
func BenchmarkFig10SortMerge(b *testing.B) {
	env, err := harness.NewWisconsinEnv(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := harness.Fig10SortMerge(env, []float64{0.4})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSpeedup(b, fig, 0)
		}
	}
}

// BenchmarkFig11HashJoin reproduces Figure 11: hash-join build sharing.
func BenchmarkFig11HashJoin(b *testing.B) {
	env := mustTPCH(b, benchScale(), false)
	defer env.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := harness.Fig11HashJoin(env, []float64{0.2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSpeedup(b, fig, 0)
		}
	}
}

// BenchmarkFig12Throughput reproduces Figures 1b/12: TPC-H mix throughput
// vs concurrent clients for all three systems. Reported metric: QPipe/X
// throughput ratio at the highest client count.
func BenchmarkFig12Throughput(b *testing.B) {
	env := mustTPCH(b, benchScale(), false)
	defer env.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := harness.Fig12Throughput(env, []int{1, 4, 8}, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			x := fig.Series[0].Points
			osp := fig.Series[2].Points
			last := len(x) - 1
			b.ReportMetric(osp[last].Y/x[last].Y, "qpipe/x-speedup")
			b.ReportMetric(osp[last].Y, "qpipe-qph")
			b.Log("\n" + fig.Format())
		}
	}
}

// BenchmarkFig13ThinkTime reproduces Figure 13: average response vs think
// time for 10 clients.
func BenchmarkFig13ThinkTime(b *testing.B) {
	env := mustTPCH(b, benchScale(), false)
	defer env.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := harness.Fig13ThinkTime(env, []float64{0, 1, 2}, 6, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			base, osp := fig.Series[0].Points, fig.Series[1].Points
			b.ReportMetric(base[0].Y/osp[0].Y, "speedup@load")
			b.Log("\n" + fig.Format())
		}
	}
}

// BenchmarkOSPOverhead quantifies the §5 claim that the OSP coordinator's
// overhead is negligible when no sharing opportunities exist.
func BenchmarkOSPOverhead(b *testing.B) {
	env := mustTPCH(b, benchScale(), false)
	defer env.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := harness.OSPOverhead(env, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.OverheadPct, "overhead-%")
			b.Logf("baseline=%v osp=%v overhead=%.2f%%", res.BaselineAvg, res.OSPAvg, res.OverheadPct)
		}
	}
}

// BenchmarkBufferPolicies is the §2.1 ablation: hit rates of the two
// replacement policies the experiments run (LRU for QPipe and Baseline, 2Q
// for DBMS X), on a mixed hot-set + scan trace.
func BenchmarkBufferPolicies(b *testing.B) {
	policies := []struct {
		name string
		mk   func(cap int) buffer.Policy
	}{
		{"lru", func(int) buffer.Policy { return buffer.NewLRU() }},
		{"2q", func(c int) buffer.Policy { return buffer.NewTwoQ(c) }},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			d := disk.New(disk.Config{BlockSize: 512})
			d.Create("f")
			for i := 0; i < 256; i++ {
				d.Append("f", []byte{byte(i)})
			}
			const capacity = 32
			for i := 0; i < b.N; i++ {
				p := buffer.NewPool(d, capacity, pol.mk(capacity))
				// Hot set with double references + scans.
				for round := int64(0); round < 20; round++ {
					for blk := int64(0); blk < 8; blk++ {
						pin(b, p, blk)
						pin(b, p, blk)
					}
					for blk := int64(0); blk < 40; blk++ {
						pin(b, p, 64+(round*40+blk)%192)
					}
				}
				if i == 0 {
					st := p.Stats()
					b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit-rate")
				}
			}
		})
	}
}

// BenchmarkQueryLatencyQPipeVsVolcano compares single-query latency of the
// two engines on identical plans (engine overhead, no sharing in play).
func BenchmarkQueryLatencyQPipeVsVolcano(b *testing.B) {
	sc := benchScale()
	env := mustTPCH(b, sc, false)
	defer env.Close()
	qp, err := env.NewQPipe()
	if err != nil {
		b.Fatal(err)
	}
	vol, err := env.NewVolcano()
	if err != nil {
		b.Fatal(err)
	}
	env.SetMeasuring(true)
	defer env.SetMeasuring(false)
	for _, sys := range []harness.System{qp, vol} {
		b.Run(sys.Name(), func(b *testing.B) {
			p := tpch.Q6(tpch.DefaultParams())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.Exec(context.Background(), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanParallelism measures the partitioned parallel scan on a
// 100k-row table: a cold full-table count at ScanParallelism 1/2/4/8
// (partitioned P>=4 should beat the single-reader scan), plus a
// multi-consumer case at P=4 where three staggered scans with distinct
// predicates must merge onto one partitioned scan group (reported shares
// metric > 0 proves OSP still engages alongside partitioning).
func BenchmarkScanParallelism(b *testing.B) {
	sc := harness.SmallScale()
	sc.Spindles = 8
	env, err := harness.NewScanEnv(sc, 100_000)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P%d", w), func(b *testing.B) {
			cfg := qpipe.DefaultConfig()
			cfg.ScanParallelism = w
			sys, err := env.NewQPipeWith(fmt.Sprintf("qpipe-scanpar%d", w), cfg)
			if err != nil {
				b.Fatal(err)
			}
			schema := sys.Manager().MustTable(harness.ScanTable).Schema
			env.SetMeasuring(true)
			defer env.SetMeasuring(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := sys.Manager().Pool.Invalidate(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := sys.Exec(context.Background(), harness.ScanCountPlan(schema, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("P4-shared-3clients", func(b *testing.B) {
		cfg := qpipe.DefaultConfig()
		cfg.ScanParallelism = 4
		sys, err := env.NewQPipeWith("qpipe-scanpar4-shared", cfg)
		if err != nil {
			b.Fatal(err)
		}
		schema := sys.Manager().MustTable(harness.ScanTable).Schema
		env.SetMeasuring(true)
		defer env.SetMeasuring(false)
		var shares int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := sys.Manager().Pool.Invalidate(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res := harness.RunStaggered(env, sys, harness.ScanSharePlans(schema, 3), time.Millisecond)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			shares += res.Shares
		}
		b.ReportMetric(float64(shares)/float64(b.N), "shares/op")
	})
}

// BenchmarkJoinParallelism measures the parallel hybrid hash join on a
// 100k×100k join (build side well past the in-memory limit, so the
// partitioned spill path runs): a cold join at fan-out 1/2/4/8, with the
// feeding scans at the same fan-out. Higher fan-outs should beat P1 (on
// the recalibrated disk simulator the join is closer to engine-bound, so
// the P1→P8 ratio is smaller than the pre-recalibration sweeps suggested).
func BenchmarkJoinParallelism(b *testing.B) {
	sc := harness.SmallScale()
	sc.Spindles = 8
	env, err := harness.NewJoinEnv(sc, 100_000)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P%d", w), func(b *testing.B) {
			cfg := qpipe.DefaultConfig()
			cfg.ScanParallelism = w
			sys, err := env.NewQPipeWith(fmt.Sprintf("qpipe-joinpar%d", w), cfg)
			if err != nil {
				b.Fatal(err)
			}
			schema := sys.Manager().MustTable(harness.JoinProbeTable).Schema
			env.SetMeasuring(true)
			defer env.SetMeasuring(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := sys.Manager().Pool.Invalidate(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := sys.Exec(context.Background(), harness.JoinParPlan(schema, w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupByParallelism measures the parallel hash group-by over the
// 100k-row probe table (97 groups, count/sum/avg) at fan-out 1/2/4/8.
func BenchmarkGroupByParallelism(b *testing.B) {
	sc := harness.SmallScale()
	sc.Spindles = 8
	env, err := harness.NewJoinEnv(sc, 100_000)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P%d", w), func(b *testing.B) {
			cfg := qpipe.DefaultConfig()
			cfg.ScanParallelism = w
			sys, err := env.NewQPipeWith(fmt.Sprintf("qpipe-gbpar%d", w), cfg)
			if err != nil {
				b.Fatal(err)
			}
			schema := sys.Manager().MustTable(harness.JoinProbeTable).Schema
			env.SetMeasuring(true)
			defer env.SetMeasuring(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := sys.Manager().Pool.Invalidate(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := sys.Exec(context.Background(), harness.GroupByParPlan(schema, w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Micro-benchmarks of the substrates ---------------------------------------

func BenchmarkTupleEncodeDecode(b *testing.B) {
	t := tuple.Tuple{tuple.I64(42), tuple.F64(3.14), tuple.Str("hello world"), tuple.Date(10000)}
	enc := t.Encode(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := t.Encode(nil)
		if _, _, err := tuple.Decode(buf, 4); err != nil {
			b.Fatal(err)
		}
		_ = enc
	}
}

func BenchmarkBufferPoolHit(b *testing.B) {
	d := disk.New(disk.Config{BlockSize: 512})
	d.Create("f")
	d.Append("f", []byte{1})
	p := buffer.NewPool(d, 4, nil)
	id := buffer.PageID{File: "f", Block: 0}
	p.Pin(id)
	p.Unpin(id)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Pin(id); err != nil {
			b.Fatal(err)
		}
		p.Unpin(id)
	}
}

func BenchmarkSignatureMatch(b *testing.B) {
	// The OSP admission fast path: building + comparing plan signatures.
	p := tpch.Q8(tpch.DefaultParams())
	sig := p.Signature()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tpch.Q8(tpch.DefaultParams()).Signature() != sig {
			b.Fatal("signature instability")
		}
	}
}

func BenchmarkEngineSubmitTiny(b *testing.B) {
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 1024}, PoolPages: 16})
	schema := tuple.NewSchema(tuple.Col("k", tuple.KindInt))
	if _, err := mgr.CreateTable("t", schema); err != nil {
		b.Fatal(err)
	}
	rows := make([]tuple.Tuple, 64)
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.I64(int64(i))}
	}
	mgr.Load("t", rows)
	eng := qpipe.New(mgr, qpipe.BaselineConfig())
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(context.Background(),
			plan.NewAggregate(plan.NewTableScan("t", schema, nil, nil, false),
				[]expr.AggSpec{{Kind: expr.AggCount}}))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Discard(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- helpers -------------------------------------------------------------------

func mustTPCH(b *testing.B, sc harness.Scale, clustered bool) *harness.Env {
	b.Helper()
	env, err := harness.NewTPCHEnv(sc, clustered)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func reportSpeedup(b *testing.B, fig harness.Figure, at int) {
	b.Helper()
	base, osp := fig.Series[0].Points, fig.Series[1].Points
	if osp[at].Y > 0 {
		b.ReportMetric(base[at].Y/osp[at].Y, "speedup")
	}
	b.Log("\n" + fig.Format())
}

func pin(b *testing.B, p *buffer.Pool, blk int64) {
	b.Helper()
	id := buffer.PageID{File: "f", Block: blk}
	if _, err := p.Pin(id); err != nil {
		b.Fatal(err)
	}
	p.Unpin(id)
}

// BenchmarkPublicAPI measures the embeddable surface end to end — the
// name-resolving builder, per-query options and the streaming Rows()
// iterator — against BenchmarkEngineSubmitTiny's precompiled-plan path, so
// facade overhead (resolution, Result indirection, iterator hand-off) is
// tracked per release.
func BenchmarkPublicAPI(b *testing.B) {
	db, err := qpipe.Open(qpipe.Options{PoolPages: 16, DisableOSP: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("t", qpipe.NewSchema(qpipe.ColDef("k", qpipe.KindInt))); err != nil {
		b.Fatal(err)
	}
	rows := make([]qpipe.Row, 64)
	for i := range rows {
		rows[i] = qpipe.R(i)
	}
	if err := db.Load("t", rows); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Scan("t").
			Filter(qpipe.Col("k").Ge(qpipe.Int(0))).
			Aggregate(qpipe.Count().As("n")).
			Run(context.Background(), qpipe.WithParallelism(1))
		if err != nil {
			b.Fatal(err)
		}
		n := int64(0)
		for row := range res.Rows() {
			n = row[0].I
		}
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
		if n != 64 {
			b.Fatalf("count = %d", n)
		}
	}
}
