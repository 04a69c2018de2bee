// Package tuple defines the value, tuple and schema model shared by the
// storage manager and both execution engines.
//
// Values are small tagged unions (no interface boxing on the hot path),
// tuples are flat slices of values, and schemas carry column names and
// kinds. The package also provides total ordering, equality, hashing and a
// compact binary encoding used by the slotted-page layer.
package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Kind enumerates the supported column types. The set mirrors what the
// QPipe/BerkeleyDB prototype needed for the Wisconsin and TPC-H schemas:
// integers, floats, fixed-point decimals (stored as float64), strings and
// dates (stored as days since epoch in an int64).
type Kind uint8

const (
	KindInvalid Kind = iota
	KindInt          // int64
	KindFloat        // float64
	KindString       // string
	KindDate         // int64 days since 1970-01-01
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	default:
		return "invalid"
	}
}

// Value is a tagged union holding a single column value.
// The zero Value has KindInvalid and is used to represent NULL-ish holes in
// intermediate results (the paper's workloads never produce SQL NULLs).
type Value struct {
	K Kind
	I int64   // KindInt, KindDate
	F float64 // KindFloat
	S string  // KindString
}

// I64 constructs an integer value.
func I64(v int64) Value { return Value{K: KindInt, I: v} }

// F64 constructs a float value.
func F64(v float64) Value { return Value{K: KindFloat, F: v} }

// Str constructs a string value.
func Str(v string) Value { return Value{K: KindString, S: v} }

// Date constructs a date value from days since epoch.
func Date(days int64) Value { return Value{K: KindDate, I: days} }

// IsValid reports whether the value holds a concrete kind.
func (v Value) IsValid() bool { return v.K != KindInvalid }

// AsFloat coerces numeric values to float64. Strings return 0.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindDate:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// AsInt coerces numeric values to int64. Strings return 0.
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt, KindDate:
		return v.I
	case KindFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// String renders the value for debugging and result printing.
func (v Value) String() string {
	switch v.K {
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		return fmt.Sprintf("%g", v.F)
	case KindString:
		return v.S
	case KindDate:
		return fmt.Sprintf("d%d", v.I)
	default:
		return "<invalid>"
	}
}

// kindGroup buckets kinds so that all numeric kinds (int/float/date) form a
// single comparison group: invalid < numeric < string. Grouping (rather than
// ordering by raw kind tag) keeps Compare a total preorder — transitivity
// would break if Str("c") < Date(1) by tag while Date(1) < F64(1.5)
// numerically but Str("c") > F64(1.5) by tag.
func kindGroup(k Kind) int {
	switch k {
	case KindInt, KindFloat, KindDate:
		return 1
	case KindString:
		return 2
	default:
		return 0
	}
}

// Compare returns -1, 0 or +1 ordering a before/equal/after b.
// Numeric kinds (int/float/date) compare numerically against each other so
// that predicates over mixed int/float columns behave naturally; all
// numerics order before all strings (transitive total preorder).
func Compare(a, b Value) int {
	an := kindGroup(a.K) == 1
	bn := kindGroup(b.K) == 1
	if an && bn {
		if a.K == KindFloat || b.K == KindFloat {
			af, bf := a.AsFloat(), b.AsFloat()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	ga, gb := kindGroup(a.K), kindGroup(b.K)
	if ga != gb {
		if ga < gb {
			return -1
		}
		return 1
	}
	// Same non-numeric group: only strings (or both invalid) remain.
	return strings.Compare(a.S, b.S)
}

// Equal reports value equality under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Tuple is a flat row of values. Tuples follow the engine's lease protocol
// (see tbuf and the README's "Memory model"): a tuple is immutable from the
// moment it is published to an output port, so producers, fan-out satellites
// and downstream operators all share the same row by reference — only the
// batch arrays that carry rows between operators are recycled, never the
// rows themselves. An operator that needs to alter a row builds a new one
// (typically from a RowArena) instead of mutating in place.
type Tuple []Value

// Clone returns a deep copy of the tuple (value slice is copied; strings are
// immutable in Go so sharing their bytes is safe).
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Concat returns a new tuple holding a's values followed by b's.
func Concat(a, b Tuple) Tuple {
	c := make(Tuple, 0, len(a)+len(b))
	c = append(c, a...)
	c = append(c, b...)
	return c
}

// Project returns a new tuple keeping only the columns at idxs.
func (t Tuple) Project(idxs []int) Tuple {
	c := make(Tuple, len(idxs))
	for i, ix := range idxs {
		c[i] = t[ix]
	}
	return c
}

// ---- Row arena -------------------------------------------------------------

// arenaChunkValues is the default chunk size (in Values) a RowArena carves
// rows from: large enough to amortize one allocation over dozens of rows,
// small enough that a mostly-idle arena wastes little.
const arenaChunkValues = 4096

// RowArena bulk-allocates tuple rows, replacing one heap allocation per row
// (join Concat output, projection rows, rows kept by row-at-a-time readers)
// with one per chunk. Rows carved from an arena follow the engine's lease
// protocol for tuples: they are immutable once published to a consumer, so
// sharing one backing chunk across many rows is safe, and the chunk is
// garbage-collected as one object when the last row referencing it dies.
// Arenas are not goroutine-safe; every parallel worker owns its own.
//
// The zero RowArena is ready to use.
type RowArena struct {
	chunk []Value
}

// Grow pre-sizes the arena's next chunk so the following n Values carve out
// of a single allocation (e.g. one page worth of projected rows).
func (a *RowArena) Grow(n int) {
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]Value, 0, n)
	}
}

// Make carves a zeroed row of n values for the caller to fill before
// publishing. The row has capacity n exactly, so a later append on it can
// never clobber a neighbouring row.
func (a *RowArena) Make(n int) Tuple {
	if n == 0 {
		return Tuple{}
	}
	if cap(a.chunk)-len(a.chunk) < n {
		size := arenaChunkValues
		if n > size {
			size = n
		}
		a.chunk = make([]Value, 0, size)
	}
	l := len(a.chunk)
	a.chunk = a.chunk[:l+n]
	return Tuple(a.chunk[l : l+n : l+n])
}

// Concat is tuple.Concat into an arena-carved row.
func (a *RowArena) Concat(x, y Tuple) Tuple {
	c := a.Make(len(x) + len(y))
	copy(c, x)
	copy(c[len(x):], y)
	return c
}

// Project is Tuple.Project into an arena-carved row.
func (a *RowArena) Project(t Tuple, idxs []int) Tuple {
	c := a.Make(len(idxs))
	for i, ix := range idxs {
		c[i] = t[ix]
	}
	return c
}

// Copy copies t into an arena-carved row, projected onto project when it is
// non-nil: how a row-at-a-time reader keeps a scratch row it decoded.
func (a *RowArena) Copy(t Tuple, project []int) Tuple {
	if project != nil {
		return a.Project(t, project)
	}
	c := a.Make(len(t))
	copy(c, t)
	return c
}

// ---- Scratch decode ---------------------------------------------------------

// Predicate is a row test (expr.Pred satisfies it).
type Predicate interface {
	Test(t Tuple) bool
}

// Scratch is decode space for one page of rows: Rows are views into one
// value buffer that the next Reset overwrites. A scan worker owns one and
// decodes every page into it, so its rows must never be published — Select
// and AppendKept copy out only the rows a consumer keeps. A Scratch used for
// a single page and then dropped is instead a fresh arena: its Rows are
// GC-owned and publishable as they are. The zero Scratch is ready to use.
type Scratch struct {
	Rows []Tuple
	vals []Value
	keep []int32 // indices into Rows of the last Select's survivors
}

// Reset empties the scratch for a page of up to n rows of ncols values,
// growing its buffers only when they are too small.
func (s *Scratch) Reset(n, ncols int) {
	if cap(s.vals) < n*ncols {
		s.vals = make([]Value, 0, n*ncols)
	}
	if cap(s.Rows) < n {
		s.Rows = make([]Tuple, 0, n)
	}
	s.vals, s.Rows = s.vals[:0], s.Rows[:0]
}

// Decode decodes one encoded row of ncols values into the scratch and
// appends it to Rows. Strings are copied out of b, never aliased.
func (s *Scratch) Decode(b []byte, ncols int) error {
	l := len(s.vals)
	if cap(s.vals)-l < ncols {
		// More rows than Reset sized for: continue in a new buffer (rows
		// already decoded keep the old one).
		s.vals, l = make([]Value, 0, 2*cap(s.vals)+ncols), 0
	}
	s.vals = s.vals[:l+ncols]
	t, _, err := decodeInto(b, s.vals[l:l+ncols:l+ncols])
	if err != nil {
		s.vals = s.vals[:l]
		return err
	}
	s.Rows = append(s.Rows, t)
	return nil
}

// Select evaluates pred over Rows (a nil pred keeps every row), remembers
// the survivors for AppendKept and returns how many there are.
func (s *Scratch) Select(pred Predicate) int {
	s.keep = s.keep[:0]
	for i, r := range s.Rows {
		if pred == nil || pred.Test(r) {
			s.keep = append(s.keep, int32(i))
		}
	}
	return len(s.keep)
}

// AppendKept appends copies of the last Select's survivors to dst,
// projected onto project when it is non-nil. The copies carve from one
// chunk sized for exactly their values, so they are GC-owned, independent of
// the scratch and safe to publish.
func (s *Scratch) AppendKept(dst []Tuple, project []int) []Tuple {
	if len(s.keep) == 0 {
		return dst
	}
	width := len(project)
	if project == nil {
		width = len(s.Rows[s.keep[0]])
	}
	chunk := make([]Value, len(s.keep)*width)
	for j, i := range s.keep {
		row := Tuple(chunk[j*width : (j+1)*width : (j+1)*width])
		if src := s.Rows[i]; project == nil {
			copy(row, src)
		} else {
			for c, ix := range project {
				row[c] = src[ix]
			}
		}
		dst = append(dst, row)
	}
	return dst
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// CompareAt orders two tuples on the given key columns.
func CompareAt(a, b Tuple, keys []int) int {
	for _, k := range keys {
		if c := Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	return 0
}

// FNV-1a parameters (hash/fnv's 64-bit variant, inlined so the per-tuple
// hash path performs zero heap allocations — fnv.New64a heap-allocates its
// state, and feeding it through h.Write shuffles every field into a scratch
// byte buffer first).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hashValue folds one value into an FNV-1a state. The byte sequence matches
// what the previous hash/fnv-based implementation hashed (kind tag, then the
// 8 little-endian payload bytes or the raw string bytes), so hash values are
// stable across the rewrite.
func hashValue(h uint64, v Value) uint64 {
	h ^= uint64(v.K)
	h *= fnvPrime64
	switch v.K {
	case KindInt, KindDate, KindFloat:
		u := uint64(v.I)
		if v.K == KindFloat {
			u = math.Float64bits(v.F)
		}
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= fnvPrime64
			u >>= 8
		}
	case KindString:
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= fnvPrime64
		}
	}
	return h
}

// HashAt returns a 64-bit hash of the key columns, suitable for hash joins
// and hash aggregation. It allocates nothing.
func HashAt(t Tuple, keys []int) uint64 {
	h := fnvOffset64
	for _, k := range keys {
		h = hashValue(h, t[k])
	}
	return h
}

// Hash1 is HashAt for a single key column, for hot loops that would
// otherwise build a one-element key slice per tuple. Hash1(t, k) ==
// HashAt(t, []int{k}).
func Hash1(t Tuple, key int) uint64 {
	return hashValue(fnvOffset64, t[key])
}

// Column describes one schema column.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Col is shorthand for constructing a Column.
func Col(name string, k Kind) Column { return Column{Name: name, Kind: k} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustColIndex is ColIndex but panics on unknown names; used when building
// the fixed benchmark plans where a miss is a programming error.
func (s *Schema) MustColIndex(name string) int {
	ix := s.ColIndex(name)
	if ix < 0 {
		panic(fmt.Sprintf("tuple: schema has no column %q (have %s)", name, s))
	}
	return ix
}

// Project returns the schema of a projection keeping columns at idxs.
func (s *Schema) Project(idxs []int) *Schema {
	out := &Schema{Cols: make([]Column, len(idxs))}
	for i, ix := range idxs {
		out.Cols[i] = s.Cols[ix]
	}
	return out
}

// Concat returns the schema of a join output (a's columns then b's).
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Cols: make([]Column, 0, len(s.Cols)+len(o.Cols))}
	out.Cols = append(out.Cols, s.Cols...)
	out.Cols = append(out.Cols, o.Cols...)
	return out
}

// String renders the schema as name:kind pairs.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", c.Name, c.Kind)
	}
	b.WriteByte(']')
	return b.String()
}

// ---- Binary encoding -------------------------------------------------------
//
// The slotted-page layer stores tuples with a simple self-describing
// encoding: per value a 1-byte kind tag followed by 8 bytes (int/float/date)
// or a uvarint length + bytes (string). The encoding is stable so signatures
// and on-"disk" bytes are deterministic across runs.

// EncodedSize returns the number of bytes Encode will produce.
func (t Tuple) EncodedSize() int {
	n := 0
	for _, v := range t {
		n++ // kind tag
		switch v.K {
		case KindInt, KindFloat, KindDate:
			n += 8
		case KindString:
			var tmp [binary.MaxVarintLen64]byte
			n += binary.PutUvarint(tmp[:], uint64(len(v.S)))
			n += len(v.S)
		}
	}
	return n
}

// Encode appends the tuple's binary form to dst and returns the result.
func (t Tuple) Encode(dst []byte) []byte {
	for _, v := range t {
		dst = append(dst, byte(v.K))
		switch v.K {
		case KindInt, KindDate:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v.I))
			dst = append(dst, b[:]...)
		case KindFloat:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
			dst = append(dst, b[:]...)
		case KindString:
			var tmp [binary.MaxVarintLen64]byte
			n := binary.PutUvarint(tmp[:], uint64(len(v.S)))
			dst = append(dst, tmp[:n]...)
			dst = append(dst, v.S...)
		}
	}
	return dst
}

// Decode parses a tuple with ncols columns from b, returning the tuple and
// the number of bytes consumed.
func Decode(b []byte, ncols int) (Tuple, int, error) {
	return decodeInto(b, make(Tuple, ncols))
}

// DecodeArena is Decode with the row carved from an arena (bulk decode paths
// — heap-file iteration, wire row batches — decode many rows back to back
// and pay one chunk allocation instead of one per row).
func DecodeArena(b []byte, ncols int, a *RowArena) (Tuple, int, error) {
	return decodeInto(b, a.Make(ncols))
}

// ValueLen returns the encoded length of the single value at the head of b
// (one column of an Encode), without decoding it.
func ValueLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("tuple: truncated value")
	}
	switch k := Kind(b[0]); k {
	case KindInt, KindDate, KindFloat:
		if len(b) < 9 {
			return 0, fmt.Errorf("tuple: truncated %s value", k)
		}
		return 9, nil
	case KindString:
		n, w := binary.Uvarint(b[1:])
		if w <= 0 || 1+w+int(n) > len(b) {
			return 0, fmt.Errorf("tuple: truncated string value")
		}
		return 1 + w + int(n), nil
	default:
		return 0, fmt.Errorf("tuple: bad kind tag %d", k)
	}
}

func decodeInto(b []byte, t Tuple) (Tuple, int, error) {
	off := 0
	for i := range t {
		if off >= len(b) {
			return nil, 0, fmt.Errorf("tuple: truncated encoding at column %d", i)
		}
		k := Kind(b[off])
		off++
		switch k {
		case KindInt, KindDate:
			if off+8 > len(b) {
				return nil, 0, fmt.Errorf("tuple: truncated int at column %d", i)
			}
			v := int64(binary.LittleEndian.Uint64(b[off:]))
			off += 8
			t[i] = Value{K: k, I: v}
		case KindFloat:
			if off+8 > len(b) {
				return nil, 0, fmt.Errorf("tuple: truncated float at column %d", i)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			off += 8
			t[i] = Value{K: k, F: v}
		case KindString:
			n, w := binary.Uvarint(b[off:])
			if w <= 0 || off+w+int(n) > len(b) {
				return nil, 0, fmt.Errorf("tuple: truncated string at column %d", i)
			}
			off += w
			t[i] = Value{K: KindString, S: string(b[off : off+int(n)])}
			off += int(n)
		default:
			return nil, 0, fmt.Errorf("tuple: bad kind tag %d at column %d", k, i)
		}
	}
	return t, off, nil
}
