package heap

import (
	"testing"

	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/disk"
	"qpipe/internal/tuple"
)

func testSchema() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("id", tuple.KindInt), tuple.Col("name", tuple.KindString))
}

func newFile(t *testing.T) *File {
	t.Helper()
	d := disk.New(disk.Config{BlockSize: 256})
	pool := buffer.NewPool(d, 8, nil)
	return Create(pool, "t", testSchema())
}

func row(i int64, s string) tuple.Tuple {
	return tuple.Tuple{tuple.I64(i), tuple.Str(s)}
}

func TestAppendScanRoundTrip(t *testing.T) {
	f := newFile(t)
	const n = 100
	for i := int64(0); i < n; i++ {
		if _, err := f.Append(row(i, "name")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() < 2 {
		t.Errorf("expected multiple pages, got %d", f.NumPages())
	}
	var got []int64
	err := f.Scan(func(_ RID, tp tuple.Tuple) bool {
		got = append(got, tp[0].I)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scanned %d rows, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d out of order: %d", i, v)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	f := newFile(t)
	for i := int64(0); i < 50; i++ {
		f.Append(row(i, "x"))
	}
	f.Sync()
	count := 0
	f.Scan(func(RID, tuple.Tuple) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop: %d", count)
	}
}

func TestReadTupleByRID(t *testing.T) {
	f := newFile(t)
	var rids []RID
	for i := int64(0); i < 30; i++ {
		r, err := f.Append(row(i, "v"))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	f.Sync()
	for i, r := range rids {
		tp, err := f.ReadTuple(r)
		if err != nil {
			t.Fatalf("RID %v: %v", r, err)
		}
		if tp[0].I != int64(i) {
			t.Fatalf("RID %v: got %d want %d", r, tp[0].I, i)
		}
	}
}

func TestSyncMakesVisible(t *testing.T) {
	f := newFile(t)
	f.Append(row(1, "a"))
	// Before sync the tail page is not flushed.
	n, _ := f.Count()
	if n != 0 {
		t.Errorf("unsynced rows visible: %d", n)
	}
	f.Sync()
	n, _ = f.Count()
	if n != 1 {
		t.Errorf("after sync: %d", n)
	}
	// Sync with nothing pending is a no-op.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenExisting(t *testing.T) {
	d := disk.New(disk.Config{BlockSize: 256})
	pool := buffer.NewPool(d, 8, nil)
	f := Create(pool, "t", testSchema())
	for i := int64(0); i < 20; i++ {
		f.Append(row(i, "z"))
	}
	f.Sync()
	g, err := Open(pool, "t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	n, err := g.Count()
	if err != nil || n != 20 {
		t.Fatalf("reopened count: %d %v", n, err)
	}
	if _, err := Open(pool, "missing", testSchema()); err == nil {
		t.Error("Open of missing file should fail")
	}
}

func TestRIDOrdering(t *testing.T) {
	a := RID{Page: 1, Slot: 2}
	b := RID{Page: 1, Slot: 3}
	c := RID{Page: 2, Slot: 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("RID.Less ordering")
	}
	if a.String() != "1.2" {
		t.Errorf("RID.String: %q", a.String())
	}
}

func TestReadPage(t *testing.T) {
	f := newFile(t)
	for i := int64(0); i < 40; i++ {
		f.Append(row(i, "pagetest"))
	}
	f.Sync()
	total := 0
	var sc tuple.Scratch
	for p := int64(0); p < f.NumPages(); p++ {
		if err := f.ReadPage(p, &sc); err != nil {
			t.Fatal(err)
		}
		total += len(sc.Rows)
	}
	if total != 40 {
		t.Errorf("ReadPage total = %d", total)
	}
	if err := f.ReadPage(f.NumPages(), &sc); err == nil {
		t.Error("ReadPage past EOF should fail")
	}
}
