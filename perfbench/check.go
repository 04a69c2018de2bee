package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"qpipe"
)

// relTol is the relative tolerance for float aggregates: engine and
// reference add the same values in different orders.
const relTol = 1e-9

func floatClose(got, want float64) bool {
	return got == want || math.Abs(got-want) <= relTol*math.Abs(want)
}

// resultBuf holds one result's rows as a flat value array reused across
// queries, so collecting answers adds no per-row allocation to the
// measured loop. Rows handed out by Next are copied because a wire
// client's batch is only valid until its next call.
type resultBuf struct {
	width int
	vals  []qpipe.Value
}

func (b *resultBuf) reset() { b.width, b.vals = 0, b.vals[:0] }

func (b *resultBuf) add1(r qpipe.Row) {
	b.width = len(r)
	b.vals = append(b.vals, r...)
}

func (b *resultBuf) add(batch []qpipe.Row) {
	for _, r := range batch {
		b.add1(r)
	}
}

func (b *resultBuf) len() int {
	if b.width == 0 {
		return 0
	}
	return len(b.vals) / b.width
}

func (b *resultBuf) row(i int) []qpipe.Value { return b.vals[i*b.width : (i+1)*b.width] }

// digest is an order-independent hash of the exact bits of every value in
// the result: two results with equal digests are the same multiset of rows.
func (b *resultBuf) digest() uint64 {
	var sum uint64
	for i := 0; i < b.len(); i++ {
		sum += hashRow(b.row(i)...)
	}
	return sum
}

// hashRow is FNV-1a over the bits of each value (the float bits for a
// float, the integer otherwise).
func hashRow(vals ...qpipe.Value) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		x := uint64(v.I)
		if v.K == qpipe.KindFloat {
			x = math.Float64bits(v.F)
		}
		for j := 0; j < 8; j++ {
			h ^= x >> (8 * j) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// shape checks one result against the reference answer computed from the
// benchmark's own copy of the data.
type shape interface {
	check(d *dataset, b *resultBuf) error
}

// ---- grouped aggregates: one row per key, counts exact, sums to relTol ----

// group is one expected row of a grouped result: its integer columns and
// its float columns, each in output order.
type group struct {
	ints   [2]int64
	floats [2]float64
}

// col describes one output column of a grouped result.
type col uint8

const (
	colKey   col = iota // the group key (int); absent for a scalar aggregate
	colInt              // exact integer (count, group column)
	colFloat            // float aggregate, compared to relTol
)

func checkGroups(b *resultBuf, cols []col, want map[int64]group) error {
	if b.len() != len(want) {
		return fmt.Errorf("got %d groups, want %d", b.len(), len(want))
	}
	seen := make(map[int64]bool, len(want))
	for i := 0; i < b.len(); i++ {
		row := b.row(i)
		if len(row) != len(cols) {
			return fmt.Errorf("row has %d columns, want %d", len(row), len(cols))
		}
		var key int64
		for j, c := range cols {
			if c == colKey {
				key = row[j].I
			}
		}
		g, ok := want[key]
		if !ok || seen[key] {
			return fmt.Errorf("unexpected or repeated group %d", key)
		}
		seen[key] = true
		ni, nf := 0, 0
		for j, c := range cols {
			switch c {
			case colInt:
				if row[j].K != qpipe.KindInt || row[j].I != g.ints[ni] {
					return fmt.Errorf("group %d column %d: got %v, want %d", key, j, row[j], g.ints[ni])
				}
				ni++
			case colFloat:
				if row[j].K != qpipe.KindFloat || !floatClose(row[j].F, g.floats[nf]) {
					return fmt.Errorf("group %d column %d: got %v, want %v", key, j, row[j], g.floats[nf])
				}
				nf++
			}
		}
	}
	return nil
}

type aggKind uint8

const (
	aggSumCountBelow  aggKind = iota // sum(amount), count(*) WHERE amount < x
	aggSegmentRevenue                // segment, sum(amount) over the join, one segment
	aggRegionCount                   // region, count(*) over the join, amount in [lo, hi]
)

type aggShape struct {
	kind   aggKind
	x      float64
	seg    int64
	lo, hi float64
}

func (s aggShape) check(d *dataset, b *resultBuf) error {
	want := map[int64]group{}
	switch s.kind {
	case aggSumCountBelow:
		var sum float64
		var n int64
		for _, o := range d.orders {
			if o.amount < s.x {
				sum += o.amount
				n++
			}
		}
		want[0] = group{ints: [2]int64{n}, floats: [2]float64{sum}}
		return checkGroups(b, []col{colFloat, colInt}, want)
	case aggSegmentRevenue:
		var sum float64
		var n int
		for _, o := range d.orders {
			if d.customers[o.cust].segment == s.seg {
				sum += o.amount
				n++
			}
		}
		if n > 0 {
			want[s.seg] = group{floats: [2]float64{sum}}
		}
		return checkGroups(b, []col{colKey, colFloat}, want)
	default:
		counts := map[int64]int64{}
		for _, o := range d.orders {
			if o.amount >= s.lo && o.amount <= s.hi {
				counts[o.region]++
			}
		}
		for r, n := range counts {
			want[r] = group{ints: [2]int64{n}}
		}
		return checkGroups(b, []col{colKey, colInt}, want)
	}
}

// groupShape: cust, count(*), sum(amount) WHERE region = r AND amount > x
// GROUP BY cust.
type groupShape struct {
	region int64
	x      float64
}

func (s groupShape) check(d *dataset, b *resultBuf) error {
	want := map[int64]group{}
	for _, o := range d.orders {
		if o.region == s.region && o.amount > s.x {
			g := want[o.cust]
			g.ints[0]++
			g.floats[0] += o.amount
			want[o.cust] = g
		}
	}
	return checkGroups(b, []col{colKey, colInt, colFloat}, want)
}

// ---- top-k: the k largest amounts above x, ties broken arbitrarily ----

type topShape struct {
	x float64
	k int
}

func (s topShape) check(d *dataset, b *resultBuf) error {
	want := make([]float64, 0, s.k+1) // the k largest so far, descending
	for _, o := range d.orders {
		if o.amount <= s.x || (len(want) == s.k && o.amount <= want[s.k-1]) {
			continue
		}
		i, _ := slices.BinarySearchFunc(want, o.amount, func(a, b float64) int { return cmp.Compare(b, a) })
		want = slices.Insert(want, i, o.amount)
		if len(want) > s.k {
			want = want[:s.k]
		}
	}
	if b.len() != len(want) {
		return fmt.Errorf("got %d rows, want %d", b.len(), len(want))
	}
	for i := 0; i < b.len(); i++ {
		row := b.row(i)
		oid, amount := row[0].I, row[1].F
		if amount != want[i] {
			return fmt.Errorf("row %d: amount %v, want %v", i, amount, want[i])
		}
		if oid < 0 || oid >= int64(len(d.orders)) || d.orders[oid].amount != amount {
			return fmt.Errorf("row %d: oid %d does not hold amount %v", i, oid, amount)
		}
	}
	return nil
}

// ---- row sets: compared by exact multiset digest, order checked ----

type rowsKind uint8

const (
	rowsAmountBand  rowsKind = iota // oid, cust, amount WHERE amount BETWEEN lo AND hi
	rowsCustBand                    // oid, amount WHERE cust BETWEEN c1 AND c2 ORDER BY amount DESC
	rowsSegmentJoin                 // oid, segment, amount over the join WHERE segment = seg AND amount < hi
)

type rowsShape struct {
	kind   rowsKind
	lo, hi float64
	c1, c2 int64
	seg    int64
	sorted bool // ORDER BY amount DESC, amount being the last column
}

func (s rowsShape) check(d *dataset, b *resultBuf) error {
	var n int
	var digest uint64
	width := 3
	for _, o := range d.orders {
		switch s.kind {
		case rowsAmountBand:
			if o.amount >= s.lo && o.amount <= s.hi {
				n++
				digest += hashRow(qpipe.IntValue(o.oid), qpipe.IntValue(o.cust), qpipe.FloatValue(o.amount))
			}
		case rowsCustBand:
			width = 2
			if o.cust >= s.c1 && o.cust <= s.c2 {
				n++
				digest += hashRow(qpipe.IntValue(o.oid), qpipe.FloatValue(o.amount))
			}
		case rowsSegmentJoin:
			if seg := d.customers[o.cust].segment; seg == s.seg && o.amount < s.hi {
				n++
				digest += hashRow(qpipe.IntValue(o.oid), qpipe.IntValue(seg), qpipe.FloatValue(o.amount))
			}
		}
	}
	if b.len() != n {
		return fmt.Errorf("got %d rows, want %d", b.len(), n)
	}
	if n > 0 && b.width != width {
		return fmt.Errorf("got %d columns, want %d", b.width, width)
	}
	if b.digest() != digest {
		return fmt.Errorf("row set differs from the reference (%d rows)", n)
	}
	if s.sorted {
		for i := 1; i < b.len(); i++ {
			if b.row(i)[b.width-1].F > b.row(i - 1)[b.width-1].F {
				return fmt.Errorf("row %d breaks ORDER BY amount DESC", i)
			}
		}
	}
	return nil
}

// checkAccounts verifies a write-mix reader's count(*), sum(amount): the
// transfers preserve both, up to float rounding of the moved amounts.
func checkAccounts(b *resultBuf, n int64, total float64) error {
	if b.len() != 1 || b.width != 2 {
		return fmt.Errorf("got %d rows of %d columns, want 1 of 2", b.len(), b.width)
	}
	row := b.row(0)
	if row[0].I != n {
		return fmt.Errorf("count %d, want %d", row[0].I, n)
	}
	if !floatClose(row[1].F, total) {
		return fmt.Errorf("sum %v, want %v", row[1].F, total)
	}
	return nil
}
