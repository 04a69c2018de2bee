package tuple

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructors(t *testing.T) {
	if v := I64(42); v.K != KindInt || v.I != 42 {
		t.Errorf("I64: got %+v", v)
	}
	if v := F64(2.5); v.K != KindFloat || v.F != 2.5 {
		t.Errorf("F64: got %+v", v)
	}
	if v := Str("x"); v.K != KindString || v.S != "x" {
		t.Errorf("Str: got %+v", v)
	}
	if v := Date(100); v.K != KindDate || v.I != 100 {
		t.Errorf("Date: got %+v", v)
	}
	if (Value{}).IsValid() {
		t.Error("zero Value should be invalid")
	}
}

func TestCompareNumericCross(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I64(1), I64(2), -1},
		{I64(2), I64(1), 1},
		{I64(2), I64(2), 0},
		{I64(2), F64(2.5), -1},
		{F64(2.5), I64(2), 1},
		{F64(2.0), I64(2), 0},
		{Date(10), Date(20), -1},
		{Date(10), I64(10), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareTotalOrderProperty(t *testing.T) {
	// Antisymmetry and transitivity over random values.
	rng := rand.New(rand.NewSource(7))
	randVal := func() Value {
		switch rng.Intn(4) {
		case 0:
			return I64(int64(rng.Intn(10) - 5))
		case 1:
			return F64(float64(rng.Intn(10)) / 2)
		case 2:
			return Str(string(rune('a' + rng.Intn(5))))
		default:
			return Date(int64(rng.Intn(10)))
		}
	}
	for i := 0; i < 2000; i++ {
		a, b, c := randVal(), randVal(), randVal()
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated for %v, %v", a, b)
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated for %v <= %v <= %v", a, b, c)
		}
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	orig := Tuple{I64(1), Str("x")}
	c := orig.Clone()
	c[0] = I64(99)
	if orig[0].I != 1 {
		t.Error("Clone aliases original")
	}
}

func TestConcatAndProject(t *testing.T) {
	a := Tuple{I64(1), Str("x")}
	b := Tuple{F64(2.5)}
	cat := Concat(a, b)
	if len(cat) != 3 || cat[2].F != 2.5 {
		t.Fatalf("Concat: got %v", cat)
	}
	p := cat.Project([]int{2, 0})
	if len(p) != 2 || p[0].F != 2.5 || p[1].I != 1 {
		t.Fatalf("Project: got %v", p)
	}
}

func TestCompareAt(t *testing.T) {
	a := Tuple{I64(1), Str("b")}
	b := Tuple{I64(1), Str("a")}
	if CompareAt(a, b, []int{0}) != 0 {
		t.Error("equal on col 0")
	}
	if CompareAt(a, b, []int{0, 1}) != 1 {
		t.Error("a > b on (0,1)")
	}
}

func TestHashAtConsistency(t *testing.T) {
	a := Tuple{I64(7), Str("xy"), F64(1.5)}
	b := Tuple{I64(7), Str("xy"), F64(9.9)}
	if HashAt(a, []int{0, 1}) != HashAt(b, []int{0, 1}) {
		t.Error("hash should ignore non-key columns")
	}
	if HashAt(a, []int{2}) == HashAt(b, []int{2}) {
		t.Error("different float keys should (very likely) hash differently")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := NewSchema(Col("a", KindInt), Col("b", KindString))
	if s.Len() != 2 {
		t.Fatal("Len")
	}
	if s.ColIndex("b") != 1 || s.ColIndex("z") != -1 {
		t.Error("ColIndex")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColIndex should panic on unknown column")
		}
	}()
	s.MustColIndex("zzz")
}

func TestSchemaProjectConcat(t *testing.T) {
	s := NewSchema(Col("a", KindInt), Col("b", KindString), Col("c", KindFloat))
	p := s.Project([]int{2, 0})
	if p.Cols[0].Name != "c" || p.Cols[1].Name != "a" {
		t.Errorf("Project: %v", p)
	}
	q := s.Concat(NewSchema(Col("d", KindDate)))
	if q.Len() != 4 || q.Cols[3].Name != "d" {
		t.Errorf("Concat: %v", q)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tup := Tuple{I64(-5), F64(3.25), Str("hello"), Date(20000), Str("")}
	enc := tup.Encode(nil)
	if len(enc) != tup.EncodedSize() {
		t.Fatalf("EncodedSize %d != len(enc) %d", tup.EncodedSize(), len(enc))
	}
	dec, n, err := Decode(enc, len(tup))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d", n, len(enc))
	}
	if !reflect.DeepEqual(tup, dec) {
		t.Errorf("round trip: %v != %v", tup, dec)
	}
}

func TestDecodeErrors(t *testing.T) {
	tup := Tuple{I64(1), Str("abc")}
	enc := tup.Encode(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := Decode(enc[:cut], 2); err == nil {
			t.Fatalf("Decode of %d-byte prefix should fail", cut)
		}
	}
	if _, _, err := Decode([]byte{0xEE, 0, 0}, 1); err == nil {
		t.Error("bad kind tag should fail")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, d int64) bool {
		tup := Tuple{I64(i), F64(fl), Str(s), Date(d)}
		dec, _, err := Decode(tup.Encode(nil), 4)
		if err != nil {
			return false
		}
		// NaN != NaN under DeepEqual on float compare via Compare; use exact bits.
		return reflect.DeepEqual(tup, dec)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTupleString(t *testing.T) {
	tup := Tuple{I64(1), Str("x")}
	if got := tup.String(); got != "(1, x)" {
		t.Errorf("String: %q", got)
	}
}

// refHashAt is the pre-inlining implementation (hash/fnv fed through a
// scratch buffer); the zero-alloc rewrite must produce identical values.
func refHashAt(t Tuple, keys []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range keys {
		v := t[k]
		buf[0] = byte(v.K)
		h.Write(buf[:1])
		switch v.K {
		case KindInt, KindDate:
			binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
			h.Write(buf[:])
		case KindFloat:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
			h.Write(buf[:])
		case KindString:
			h.Write([]byte(v.S))
		}
	}
	return h.Sum64()
}

func TestHashAtMatchesReferenceFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		row := Tuple{
			I64(rng.Int63() - rng.Int63()),
			F64(rng.NormFloat64() * 1e6),
			Str(randString(rng, rng.Intn(24))),
			Date(int64(rng.Intn(40000))),
			{}, // invalid value (NULL-ish hole)
		}
		keys := []int{rng.Intn(len(row)), rng.Intn(len(row)), rng.Intn(len(row))}
		if got, want := HashAt(row, keys), refHashAt(row, keys); got != want {
			t.Fatalf("HashAt(%v, %v) = %#x, reference fnv = %#x", row, keys, got, want)
		}
		k := rng.Intn(len(row))
		if Hash1(row, k) != refHashAt(row, []int{k}) {
			t.Fatalf("Hash1 diverges from reference at key %d of %v", k, row)
		}
	}
}

func randString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	rng.Read(b)
	return string(b)
}

func TestHashAtZeroAllocs(t *testing.T) {
	row := Tuple{I64(42), Str("hello world"), F64(3.14), Date(12345)}
	keys := []int{0, 1, 2, 3}
	if allocs := testing.AllocsPerRun(100, func() {
		HashAt(row, keys)
	}); allocs != 0 {
		t.Fatalf("HashAt allocates %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		Hash1(row, 1)
	}); allocs != 0 {
		t.Fatalf("Hash1 allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestRowArena(t *testing.T) {
	var a RowArena
	x := Tuple{I64(1), Str("l")}
	y := Tuple{I64(2), Str("r")}
	c := a.Concat(x, y)
	if len(c) != 4 || c[0].I != 1 || c[3].S != "r" {
		t.Fatalf("arena concat: %v", c)
	}
	p := a.Project(c, []int{3, 0})
	if len(p) != 2 || p[0].S != "r" || p[1].I != 1 {
		t.Fatalf("arena project: %v", p)
	}
	// Appending to one carved row must never clobber its neighbours.
	c = append(c, I64(99))
	if p[0].S != "r" {
		t.Fatal("append to one arena row clobbered the next")
	}
	// Rows survive chunk turnover.
	rows := make([]Tuple, 0, 10000)
	for i := 0; i < 10000; i++ {
		r := a.Make(3)
		r[0] = I64(int64(i))
		rows = append(rows, r)
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d corrupted: %v", i, r)
		}
	}
	// Amortization: many small rows should cost far less than one
	// allocation each.
	var b RowArena
	if allocs := testing.AllocsPerRun(1000, func() { b.Make(4) }); allocs > 0.1 {
		t.Fatalf("arena Make allocates %.3f allocs/op, want amortized ~1/chunk", allocs)
	}
}

func TestDecodeArenaMatchesDecode(t *testing.T) {
	in := Tuple{I64(-5), F64(2.75), Str("abc"), Date(9000)}
	enc := in.Encode(nil)
	var a RowArena
	got, n, err := DecodeArena(enc, len(in), &a)
	if err != nil || n != len(enc) {
		t.Fatalf("DecodeArena: %v n=%d", err, n)
	}
	want, _, err := Decode(enc, len(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeArena %v != Decode %v", got, want)
	}
}

func TestValueLen(t *testing.T) {
	for _, v := range []Value{I64(-5), F64(2.75), Str(""), Str("a longer string value"), Date(9000)} {
		enc := Tuple{v, I64(1)}.Encode(nil)
		want := len(Tuple{v}.Encode(nil))
		if got, err := ValueLen(enc); err != nil || got != want {
			t.Fatalf("ValueLen(%v) = %d, %v; want %d", v, got, err, want)
		}
		if _, err := ValueLen(enc[:want-1]); err == nil {
			t.Fatalf("ValueLen(%v) accepted a truncated encoding", v)
		}
	}
	if _, err := ValueLen([]byte{0xff}); err == nil {
		t.Fatal("ValueLen accepted a bad kind tag")
	}
}
