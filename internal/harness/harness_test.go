package harness

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"qpipe/internal/plan"
	"qpipe/internal/workload/tpch"
)

// tinyScale is even smaller than SmallScale for fast unit runs.
func tinyScale() Scale {
	return Scale{SF: 0.001, BigRows: 1500, PoolPages: 32,
		SeqLat: 40 * time.Microsecond, RandLat: 60 * time.Microsecond, Spindles: 1, Seed: 7}
}

func TestTPCHEnvAndSystems(t *testing.T) {
	env, err := NewTPCHEnv(tinyScale(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	qp, err := env.NewQPipe()
	if err != nil {
		t.Fatal(err)
	}
	vol, err := env.NewVolcano()
	if err != nil {
		t.Fatal(err)
	}
	base, err := env.NewBaseline()
	if err != nil {
		t.Fatal(err)
	}
	p := tpch.Q6(tpch.DefaultParams())
	for _, sys := range []System{qp, vol, base} {
		if err := sys.Exec(context.Background(), p); err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
	}
}

// TestAllMixQueriesAgree cross-validates the two engines: every query in
// the paper's mix must produce identical aggregate results on QPipe and
// Volcano (they share nothing but the plan and the data).
func TestAllMixQueriesAgree(t *testing.T) {
	env, err := NewTPCHEnv(tinyScale(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	qp, _ := env.NewQPipe()
	vol, _ := env.NewVolcano()
	qps := qp.(*QPipeSystem)
	vols := vol.(*VolcanoSystem)
	params := tpch.DefaultParams()
	for _, qn := range tpch.MixQueries {
		p := tpch.Query(qn, params)
		res, err := qps.Eng.Query(context.Background(), p)
		if err != nil {
			t.Fatalf("Q%d submit: %v", qn, err)
		}
		qpRows, err := res.All()
		if err != nil {
			t.Fatalf("Q%d qpipe: %v", qn, err)
		}
		vRows, err := vols.Eng.Run(context.Background(), tpch.Query(qn, params))
		if err != nil {
			t.Fatalf("Q%d volcano: %v", qn, err)
		}
		if len(qpRows) != len(vRows) {
			t.Fatalf("Q%d: qpipe %d rows, volcano %d rows", qn, len(qpRows), len(vRows))
		}
		// Compare as multisets of rendered rows (group-by order differs).
		counts := make(map[string]int)
		for _, r := range qpRows {
			counts[r.String()]++
		}
		for _, r := range vRows {
			counts[r.String()]--
		}
		for k, c := range counts {
			if c != 0 {
				t.Fatalf("Q%d: row multiset mismatch on %s (delta %d)", qn, k, c)
			}
		}
	}
}

func TestQ4VariantsAgree(t *testing.T) {
	env, err := NewTPCHEnv(tinyScale(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	qp, _ := env.NewQPipe()
	qps := qp.(*QPipeSystem)
	params := tpch.DefaultParams()
	get := func(p plan.Node) map[string]int {
		res, err := qps.Eng.Query(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]int)
		for _, r := range rows {
			m[r.String()]++
		}
		return m
	}
	mj := get(tpch.Q4MergeJoin(params))
	hj := get(tpch.Q4HashJoin(params))
	if len(mj) == 0 {
		t.Fatal("Q4 produced no groups; scale too small")
	}
	if len(mj) != len(hj) {
		t.Fatalf("Q4 variants disagree: %v vs %v", mj, hj)
	}
	for k, v := range mj {
		if hj[k] != v {
			t.Fatalf("Q4 group %s: mj=%d hj=%d", k, v, hj[k])
		}
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	env, err := NewTPCHEnv(tinyScale(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	figs, err := Fig8CircularScan(env, []int{4}, []float64{0, 0.3, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	fig := figs[0]
	if len(fig.Series) != 2 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	base, osp := fig.Series[0], fig.Series[1]
	for i := range base.Points {
		if osp.Points[i].Y >= base.Points[i].Y {
			t.Errorf("at frac %.1f: OSP blocks %v >= baseline %v",
				base.Points[i].X, osp.Points[i].Y, base.Points[i].Y)
		}
	}
	t.Log("\n" + fig.Format())
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	env, err := NewTPCHEnv(tinyScale(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	fig, err := Fig12Throughput(env, []int{1, 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	// At 6 clients (disk-bound), QPipe w/OSP should beat DBMS X.
	x, osp := fig.Series[0], fig.Series[2]
	if osp.Points[1].Y <= x.Points[1].Y {
		t.Errorf("6 clients: QPipe %.1f qph <= X %.1f qph", osp.Points[1].Y, x.Points[1].Y)
	}
	t.Log("\n" + fig.Format())
}

func TestFig1aBreakdown(t *testing.T) {
	env, err := NewTPCHEnv(tinyScale(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	fig, err := Fig1aTimeBreakdown(env)
	if err != nil {
		t.Fatal(err)
	}
	// Every query's fractions must sum to ~1.
	for i := range fig.Series[0].Points {
		sum := 0.0
		for _, s := range fig.Series {
			sum += s.Points[i].Y
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("query %v: fractions sum to %f", fig.Series[0].Points[i].X, sum)
		}
	}
	t.Log("\n" + fig.Format())
}

func TestStandaloneResponse(t *testing.T) {
	env, err := NewTPCHEnv(tinyScale(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	sys, _ := env.NewBaseline()
	env.SetMeasuring(true)
	defer env.SetMeasuring(false)
	d, err := StandaloneResponse(env, sys, func() plan.Node { return tpch.Q6(tpch.DefaultParams()) })
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("non-positive response time")
	}
}

func TestRunClosedLoop(t *testing.T) {
	env, err := NewTPCHEnv(tinyScale(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	sys, _ := env.NewQPipe()
	res := RunClosedLoop(env, sys, 3, 2, 0, func(rng *rand.Rand) plan.Node {
		return tpch.Q6(tpch.RandomParams(rng))
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Completed != 6 {
		t.Fatalf("completed %d queries, want 6", res.Completed)
	}
	if res.Throughput <= 0 || res.AvgResponse <= 0 {
		t.Fatalf("bad metrics: %+v", res)
	}
}

func TestFigureFormat(t *testing.T) {
	fig := Figure{
		Name: "T", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Y: 2}, {X: 3, Y: 4}}},
			{Label: "b", Points: []Point{{X: 1, Y: 5}}},
		},
	}
	out := fig.Format()
	if out == "" {
		t.Fatal("empty format")
	}
	for _, want := range []string{"T", "a", "b", "x", "y"} {
		if !containsStr(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
