package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"qpipe"
)

// Every input the engine sees is derived from the workload seed through a
// PCG stream per purpose, so the same seed always yields the same rows and
// the same statement sequence, independent of timing.
const (
	streamOrders uint64 = iota + 1
	streamCustomers
	streamAccounts
	streamBurst
	streamAdhoc
	streamTransfers
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// cents draws a money value in [0, max) with two decimals. Money is kept
// non-integral on purpose: float SUM results then depend on addition order,
// which the answer checks must tolerate and check.answer_variants reports.
func cents(r *rand.Rand, max int) float64 {
	return float64(r.IntN(max*100)) / 100
}

// lit renders v as a two-decimal SQL literal and returns the value the
// engine will parse from it, so reference answers use the same bound.
func lit(v float64) (string, float64) {
	s := strconv.FormatFloat(v, 'f', 2, 64)
	f, _ := strconv.ParseFloat(s, 64) // s was just formatted from a float
	return s, f
}

type order struct {
	oid, cust, region, priority int64
	amount                      float64
}

type customer struct {
	cid, segment int64
	balance      float64
}

// dataset is the orders/customers pair scan-burst and adhoc-wire query.
// orders[i].oid == i and customers[i].cid == i.
type dataset struct {
	orders    []order
	customers []customer
}

const (
	burstGroups = 4
	burstStrata = 2
	burstDeck   = burstGroups * burstStrata

	adhocTemplates = 4

	numRegions  = 7
	numSegments = 4
	maxAmount   = 1000
)

func genDataset(seed int64, nOrders, nCustomers int) *dataset {
	d := &dataset{orders: make([]order, nOrders), customers: make([]customer, nCustomers)}
	r := newRand(seed, streamCustomers)
	for i := range d.customers {
		d.customers[i] = customer{cid: int64(i), segment: r.Int64N(numSegments), balance: cents(r, 500)}
	}
	r = newRand(seed, streamOrders)
	for i := range d.orders {
		d.orders[i] = order{
			oid:      int64(i),
			cust:     r.Int64N(int64(nCustomers)),
			region:   r.Int64N(numRegions),
			priority: r.Int64N(5),
			amount:   cents(r, maxAmount),
		}
	}
	return d
}

const datasetDDL = `CREATE TABLE orders (oid INT, cust INT, region INT, priority INT, amount FLOAT);
CREATE TABLE customers (cid INT, segment INT, balance FLOAT)`

func (d *dataset) orderRows() []qpipe.Row {
	rows := make([]qpipe.Row, len(d.orders))
	for i, o := range d.orders {
		rows[i] = qpipe.R(o.oid, o.cust, o.region, o.priority, o.amount)
	}
	return rows
}

func (d *dataset) customerRows() []qpipe.Row {
	rows := make([]qpipe.Row, len(d.customers))
	for i, c := range d.customers {
		rows[i] = qpipe.R(c.cid, c.segment, c.balance)
	}
	return rows
}

// query is one statement instance: the spellings that must all return the
// same answer, the key naming that answer (equal keys, equal answers), and
// how to check a result against the reference computed from the dataset.
type query struct {
	key       string
	spellings []string
	shape     shape
}

// burstQuery draws round's statement for scan-burst: one of the planshare
// groups, written three ways (commuted comparisons, shuffled conjuncts,
// BETWEEN against explicit bounds, swapped join sides). Rounds come in
// decks of burstDeck: each deck holds every group once per literal
// stratum, in an order drawn from the seed, and the literal within a
// stratum alternates from deck to deck. Every seed thus asks for the same
// work; seeds differ in the data and in the order of arrival. Statements
// recur every other deck, so bit-level answer differences can be counted.
func burstQuery(seed int64, round int) query {
	deck := round / burstDeck
	combo := newRand(seed, streamBurst<<32|uint64(deck)).Perm(burstDeck)[round%burstDeck]
	group, stratum, alt := combo/burstStrata, combo%burstStrata, deck%2
	switch group {
	case 0:
		x := 100 + 400*stratum + 200*alt
		return query{
			key: fmt.Sprintf("A/%d", x),
			spellings: []string{
				fmt.Sprintf("SELECT sum(amount) AS revenue, count(*) AS n FROM orders WHERE amount < %d", x),
				fmt.Sprintf("SELECT sum(amount) AS revenue, count(*) AS n FROM orders WHERE %d > amount", x),
				fmt.Sprintf("SELECT sum(amount) AS revenue, count(*) AS n FROM orders WHERE amount < %d AND 1 = 1", x),
			},
			shape: aggShape{kind: aggSumCountBelow, x: float64(x)},
		}
	case 1:
		s := 2*stratum + alt
		return query{
			key: fmt.Sprintf("B/%d", s),
			spellings: []string{
				fmt.Sprintf("SELECT segment, sum(amount) AS revenue FROM customers c JOIN orders o ON c.cid = o.cust WHERE segment = %d GROUP BY segment", s),
				fmt.Sprintf("SELECT segment, sum(amount) AS revenue FROM orders o JOIN customers c ON o.cust = c.cid WHERE %d = segment GROUP BY segment", s),
				fmt.Sprintf("SELECT segment, sum(amount) AS revenue FROM customers c, orders o WHERE o.cust = c.cid AND segment = %d GROUP BY segment", s),
			},
			shape: aggShape{kind: aggSegmentRevenue, seg: int64(s)},
		}
	case 2:
		lo := 400*stratum + 100*alt
		hi := lo + 200 + 100*alt
		return query{
			key: fmt.Sprintf("C/%d-%d", lo, hi),
			spellings: []string{
				fmt.Sprintf("SELECT region, count(*) AS n FROM customers, orders WHERE cid = cust AND amount BETWEEN %d AND %d GROUP BY region", lo, hi),
				fmt.Sprintf("SELECT region, count(*) AS n FROM orders, customers WHERE amount >= %d AND cust = cid AND amount <= %d GROUP BY region", lo, hi),
				fmt.Sprintf("SELECT region, count(*) AS n FROM customers, orders WHERE %d <= amount AND amount <= %d AND cid = cust GROUP BY region", lo, hi),
			},
			shape: aggShape{kind: aggRegionCount, lo: float64(lo), hi: float64(hi)},
		}
	default:
		// The sort input is every order above x: 5% to 25% of the table.
		x := 750 + 100*stratum + 50*alt
		return query{
			key: fmt.Sprintf("D/%d", x),
			spellings: []string{
				fmt.Sprintf("SELECT oid, amount FROM orders WHERE amount > %d ORDER BY amount DESC LIMIT 10", x),
				fmt.Sprintf("SELECT oid, amount FROM orders WHERE %d < amount ORDER BY amount DESC LIMIT 10", x),
				fmt.Sprintf("SELECT oid, amount FROM orders WHERE amount > %d AND NOT (amount <= %d) ORDER BY amount DESC LIMIT 10", x, x),
			},
			shape: topShape{x: float64(x), k: 10},
		}
	}
}

// adhocQuery draws the n-th ad hoc statement of a wire client. The four
// templates come in seeded decks, so every seed runs the same template mix.
// Literals carry fresh cents, so no two texts in a run repeat and no plan
// or result can be reused; each returns about 10^3 to 10^4 rows of the
// 60k-row table.
func adhocQuery(seed int64, client, n int) query {
	deck := n / adhocTemplates
	template := newRand(seed, streamAdhoc<<40|uint64(client)<<32|uint64(deck)).Perm(adhocTemplates)[n%adhocTemplates]
	r := newRand(seed, streamAdhoc<<48|uint64(client)<<32|uint64(n))
	var q query
	switch template {
	case 0:
		loText, lo := lit(cents(r, 800))
		hiText, hi := lit(lo + 20 + cents(r, 130))
		q = query{
			spellings: []string{fmt.Sprintf("SELECT oid, cust, amount FROM orders WHERE amount BETWEEN %s AND %s", loText, hiText)},
			shape:     rowsShape{kind: rowsAmountBand, lo: lo, hi: hi},
		}
	case 1:
		reg := r.Int64N(numRegions)
		xText, x := lit(cents(r, 600))
		q = query{
			spellings: []string{fmt.Sprintf("SELECT cust, count(*) AS n, sum(amount) AS total FROM orders WHERE region = %d AND amount > %s GROUP BY cust", reg, xText)},
			shape:     groupShape{region: reg, x: x},
		}
	case 2:
		c1 := r.Int64N(3000)
		c2 := c1 + 70 + r.Int64N(500)
		q = query{
			spellings: []string{fmt.Sprintf("SELECT oid, amount FROM orders WHERE cust BETWEEN %d AND %d ORDER BY amount DESC", c1, c2)},
			shape:     rowsShape{kind: rowsCustBand, c1: c1, c2: c2, sorted: true},
		}
	default:
		s := r.Int64N(numSegments)
		xText, x := lit(70 + cents(r, 530))
		q = query{
			spellings: []string{fmt.Sprintf("SELECT o.oid, c.segment, o.amount FROM orders o JOIN customers c ON o.cust = c.cid WHERE c.segment = %d AND o.amount < %s", s, xText)},
			shape:     rowsShape{kind: rowsSegmentJoin, seg: s, hi: x},
		}
	}
	q.key = q.spellings[0]
	return q
}

// account rows for write-mix: a fixed population whose row count and total
// balance every transfer preserves.
type account struct {
	aid, branch int64
	amount      float64
}

const accountsDDL = `CREATE TABLE accounts (aid INT, branch INT, amount FLOAT)`

func genAccounts(seed int64, n int) []account {
	r := newRand(seed, streamAccounts)
	out := make([]account, n)
	for i := range out {
		out[i] = account{aid: int64(i), branch: r.Int64N(16), amount: 100 + cents(r, 900)}
	}
	return out
}

func accountRows(accts []account) []qpipe.Row {
	rows := make([]qpipe.Row, len(accts))
	for i, a := range accts {
		rows[i] = qpipe.R(a.aid, a.branch, a.amount)
	}
	return rows
}

// transfer moves delta from one account to another in one transaction.
// It is due at (k + jitter) writer periods into a phase, k being its place
// in the phase.
type transfer struct {
	from, to int64
	delta    float64
	jitter   float64 // in [0, 1)
}

func (t transfer) sql() string {
	return fmt.Sprintf("UPDATE accounts SET amount = amount - %.2f WHERE aid = %d; UPDATE accounts SET amount = amount + %.2f WHERE aid = %d",
		t.delta, t.from, t.delta, t.to)
}

// apply mirrors the transaction on the benchmark's copy of the table, with
// the same float operations the engine performs.
func (t transfer) apply(accts []account) {
	accts[t.from].amount -= t.delta
	accts[t.to].amount += t.delta
}

// genTransfer draws the n-th transfer. The jitter keeps a fixed rate from
// locking into step with a closed-loop reader (which step it locked into
// changed from run to run) while every run still issues the same number of
// transfers per second, which Poisson arrivals would not.
func genTransfer(seed int64, n, accounts int) transfer {
	r := newRand(seed, streamTransfers<<32|uint64(n))
	from := r.Int64N(int64(accounts))
	to := (from + 1 + r.Int64N(int64(accounts-1))) % int64(accounts)
	return transfer{from: from, to: to,
		// k/100 rounds exactly as the engine parses the %.2f literal of sql().
		delta:  float64(1+r.IntN(5000)) / 100,
		jitter: r.Float64()}
}

const readerSQL = "SELECT count(*) AS n, sum(amount) AS total FROM accounts"
