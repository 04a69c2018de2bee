package main

import (
	"reflect"
	"testing"

	"qpipe"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, b := genDataset(7, 500, 40), genDataset(7, 500, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different datasets")
	}
	if reflect.DeepEqual(a, genDataset(8, 500, 40)) {
		t.Fatal("different seeds generated the same dataset")
	}
	if !reflect.DeepEqual(genAccounts(7, 300), genAccounts(7, 300)) {
		t.Fatal("same seed generated different accounts")
	}
	for i := 0; i < 3*burstDeck; i++ {
		if x, y := burstQuery(7, i), burstQuery(7, i); !reflect.DeepEqual(x, y) {
			t.Fatalf("burst round %d: %v != %v", i, x, y)
		}
		if x, y := adhocQuery(7, 1, i), adhocQuery(7, 1, i); !reflect.DeepEqual(x, y) {
			t.Fatalf("adhoc statement %d: %v != %v", i, x, y)
		}
		if x, y := genTransfer(7, i, 300), genTransfer(7, i, 300); x != y {
			t.Fatalf("transfer %d: %v != %v", i, x, y)
		}
	}
	if reflect.DeepEqual(adhocQuery(7, 0, 0), adhocQuery(8, 0, 0)) {
		t.Fatal("different seeds generated the same ad hoc statement")
	}
}

func TestBurstDeckCoversEveryGroupAndStratum(t *testing.T) {
	for deck := 0; deck < 4; deck++ {
		groups := map[byte]int{}
		for i := 0; i < burstDeck; i++ {
			groups[burstQuery(3, deck*burstDeck+i).key[0]]++
		}
		for _, g := range []byte("ABCD") {
			if groups[g] != burstStrata {
				t.Fatalf("deck %d: group %c drawn %d times, want %d", deck, g, groups[g], burstStrata)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && c.n-rank(p, c.n) < minTail {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, p, c.n-rank(p, c.n))
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 95); got != 5 {
		t.Errorf("p95 = %v, want 5", got)
	}
}

// tiny is a dataset small enough to work the reference answers out by hand.
func tiny() *dataset {
	return &dataset{
		orders: []order{
			{oid: 0, cust: 0, region: 0, amount: 10.25},
			{oid: 1, cust: 1, region: 1, amount: 20.50},
			{oid: 2, cust: 0, region: 0, amount: 30.75},
			{oid: 3, cust: 2, region: 1, amount: 40.10},
			{oid: 4, cust: 1, region: 0, amount: 50.05},
		},
		customers: []customer{{cid: 0, segment: 0}, {cid: 1, segment: 1}, {cid: 2, segment: 0}},
	}
}

func buf(rows ...qpipe.Row) *resultBuf {
	b := &resultBuf{}
	b.add(rows)
	return b
}

func TestReferenceAnswersOnTinyDataset(t *testing.T) {
	d := tiny()
	for _, c := range []struct {
		name  string
		shape shape
		right *resultBuf
		wrong *resultBuf
	}{
		{"sum and count below 35", aggShape{kind: aggSumCountBelow, x: 35},
			buf(qpipe.R(61.5, 3)), buf(qpipe.R(61.5, 4))},
		{"segment 0 revenue", aggShape{kind: aggSegmentRevenue, seg: 0},
			buf(qpipe.R(0, 81.1)), buf(qpipe.R(0, 81.2))},
		{"count by region in [20, 45]", aggShape{kind: aggRegionCount, lo: 20, hi: 45},
			buf(qpipe.R(1, 2), qpipe.R(0, 1)), buf(qpipe.R(1, 2))},
		{"region 0 above 20 by customer", groupShape{region: 0, x: 20},
			buf(qpipe.R(1, 1, 50.05), qpipe.R(0, 1, 30.75)), buf(qpipe.R(1, 1, 50.05), qpipe.R(0, 2, 41.0))},
		{"top 2 above 15", topShape{x: 15, k: 2},
			buf(qpipe.R(4, 50.05), qpipe.R(3, 40.10)), buf(qpipe.R(3, 40.10), qpipe.R(4, 50.05))},
		{"amount band", rowsShape{kind: rowsAmountBand, lo: 20.5, hi: 40.1},
			buf(qpipe.R(3, 2, 40.10), qpipe.R(1, 1, 20.50), qpipe.R(2, 0, 30.75)),
			buf(qpipe.R(3, 2, 40.10), qpipe.R(1, 1, 20.50))},
		{"customer band sorted", rowsShape{kind: rowsCustBand, c1: 1, c2: 2, sorted: true},
			buf(qpipe.R(4, 50.05), qpipe.R(3, 40.10), qpipe.R(1, 20.50)),
			buf(qpipe.R(3, 40.10), qpipe.R(4, 50.05), qpipe.R(1, 20.50))},
		{"segment join", rowsShape{kind: rowsSegmentJoin, seg: 1, hi: 50},
			buf(qpipe.R(1, 1, 20.50)), buf(qpipe.R(4, 1, 50.05))},
	} {
		if err := c.shape.check(d, c.right); err != nil {
			t.Errorf("%s: correct answer rejected: %v", c.name, err)
		}
		if err := c.shape.check(d, c.wrong); err == nil {
			t.Errorf("%s: wrong answer accepted", c.name)
		}
	}
	if err := checkAccounts(buf(qpipe.R(2, 30.5)), 2, 30.5); err != nil {
		t.Errorf("accounts: %v", err)
	}
	if err := checkAccounts(buf(qpipe.R(2, 30.6)), 2, 30.5); err == nil {
		t.Error("accounts: changed total accepted")
	}
}

// TestEngineMatchesReference runs every statement kind through the engine
// on a small generated dataset and checks it the way the benchmark does.
func TestEngineMatchesReference(t *testing.T) {
	d := genDataset(5, 3000, 200)
	db, err := loadDataset(qpipe.Options{PoolPages: 64}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var b resultBuf
	run := func(q query) {
		for _, text := range q.spellings {
			if _, err := localRead(db, nil, text, &b); err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if err := q.shape.check(d, &b); err != nil {
				t.Errorf("%s: %v", text, err)
			}
		}
	}
	for i := 0; i < burstDeck; i++ {
		run(burstQuery(5, i))
	}
	for i := 0; i < 12; i++ {
		run(adhocQuery(5, 0, i))
	}
}

func TestTransferPreservesTotal(t *testing.T) {
	accts := genAccounts(2, 50)
	var before float64
	for _, a := range accts {
		before += a.amount
	}
	for i := 0; i < 100; i++ {
		genTransfer(2, i, len(accts)).apply(accts)
	}
	var after float64
	for _, a := range accts {
		after += a.amount
	}
	if !floatClose(after, before) {
		t.Fatalf("total moved from %v to %v", before, after)
	}
}

func TestSelfTimesSumToWall(t *testing.T) {
	req := []span{
		{Req: 1, ID: 0, Parent: -1, Name: "read", Start: 0, End: 100},
		{Req: 1, ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{Req: 1, ID: 2, Parent: 0, Name: "b", Start: 40, End: 90},
	}
	lt, err := analyzeSpans(req)
	if err != nil {
		t.Fatal(err)
	}
	if lt.maxSelfErr != 0 || lt.self["read"] != 20 || lt.self["a"] != 30 {
		t.Fatalf("self times %v, error %v", lt.self, lt.maxSelfErr)
	}
	if got := lt.selfShare("b"); got != 0.5 {
		t.Fatalf("self share of b = %v, want 0.5", got)
	}
	// Overlapping siblings cover less than their summed durations, so the
	// self times no longer add up to the wall time.
	req[2].Start = 30
	if lt, _ := analyzeSpans(req); lt.maxSelfErr <= selfEps {
		t.Fatalf("overlap not detected: error %v", lt.maxSelfErr)
	}
}

func TestAdhocDeckCoversEveryTemplate(t *testing.T) {
	for deck := 0; deck < 4; deck++ {
		kinds := map[string]bool{}
		for i := 0; i < adhocTemplates; i++ {
			q := adhocQuery(3, 1, deck*adhocTemplates+i)
			kinds[q.spellings[0][:20]] = true
		}
		if len(kinds) != adhocTemplates {
			t.Fatalf("deck %d drew %d distinct templates, want %d", deck, len(kinds), adhocTemplates)
		}
	}
}
