// Package btree implements a disk-backed B+tree used for clustered and
// unclustered indexes. Leaves carry (key, payload) entries chained by a
// next-leaf pointer so clustered index scans stream leaves in key order —
// the access path behind Figure 9's order-sensitive scan experiment. For an
// unclustered index the payload is an encoded heap RID, and probes build a
// RID list that is sorted in page order before fetching (paper §3.2:
// "the list is then sorted on ascending page number to avoid multiple
// visits on the same page").
//
// Trees are built by bulk-loading sorted input (the paper's data is bulk
// loaded, §1) and additionally support single inserts with node splits for
// the update µEngine.
//
// Concurrency: readers may run concurrently; inserts require external
// exclusion (the update µEngine holds a table X lock), matching how the
// prototype delegated concurrency control to the storage manager.
package btree

import (
	"encoding/binary"
	"fmt"

	"qpipe/internal/storage/buffer"
	"qpipe/internal/tuple"
)

// Node page layout (within one fixed-size block):
//
//	[0]     u8  isLeaf
//	[1:3)   u16 nkeys
//	[3:11)  i64 next leaf page (-1 if none / internal)
//	[11:)   entries
//
// leaf entry:     key (encoded 1-value tuple) | u32 payload len | payload
// internal entry: key (encoded 1-value tuple) | i64 child page
const (
	hdrSize    = 11
	invalidPno = int64(-1)
)

type entry struct {
	key     tuple.Value
	payload []byte // leaf
	child   int64  // internal
}

type node struct {
	leaf    bool
	next    int64
	entries []entry
}

func decodeNode(buf []byte) (*node, error) {
	n := &node{
		leaf: buf[0] == 1,
		next: int64(binary.LittleEndian.Uint64(buf[3:11])),
	}
	cnt := int(binary.LittleEndian.Uint16(buf[1:3]))
	off := hdrSize
	n.entries = make([]entry, 0, cnt)
	for i := 0; i < cnt; i++ {
		kt, w, err := tuple.Decode(buf[off:], 1)
		if err != nil {
			return nil, fmt.Errorf("btree: corrupt key %d: %w", i, err)
		}
		off += w
		var e entry
		e.key = kt[0]
		if n.leaf {
			ln := binary.LittleEndian.Uint32(buf[off:])
			off += 4
			e.payload = append([]byte(nil), buf[off:off+int(ln)]...)
			off += int(ln)
		} else {
			e.child = int64(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		n.entries = append(n.entries, e)
	}
	return n, nil
}

func (n *node) encodedSize() int {
	sz := hdrSize
	for _, e := range n.entries {
		sz += tuple.Tuple{e.key}.EncodedSize()
		if n.leaf {
			sz += 4 + len(e.payload)
		} else {
			sz += 8
		}
	}
	return sz
}

// encode writes the node into buf (a full page buffer), zero-padding.
func (n *node) encode(buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	if n.leaf {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.entries)))
	binary.LittleEndian.PutUint64(buf[3:11], uint64(n.next))
	off := hdrSize
	for _, e := range n.entries {
		enc := tuple.Tuple{e.key}.Encode(nil)
		copy(buf[off:], enc)
		off += len(enc)
		if n.leaf {
			binary.LittleEndian.PutUint32(buf[off:], uint32(len(e.payload)))
			off += 4
			copy(buf[off:], e.payload)
			off += len(e.payload)
		} else {
			binary.LittleEndian.PutUint64(buf[off:], uint64(e.child))
			off += 8
		}
	}
}

// Tree is a B+tree over a single disk file. Page 0 is a meta page holding
// the root pointer and height.
type Tree struct {
	Name string
	pool *buffer.Pool

	root   int64
	height int // 1 = root is leaf
	npages int64
}

// Create makes an empty tree in a new disk file.
func Create(pool *buffer.Pool, name string) (*Tree, error) {
	d := pool.Disk()
	d.Create(name)
	t := &Tree{Name: name, pool: pool}
	// meta page 0
	if _, err := d.Append(name, make([]byte, d.BlockSize())); err != nil {
		return nil, err
	}
	t.npages = 1
	// empty root leaf at page 1
	rootBuf := make([]byte, d.BlockSize())
	(&node{leaf: true, next: invalidPno}).encode(rootBuf)
	if _, err := d.Append(name, rootBuf); err != nil {
		return nil, err
	}
	t.npages = 2
	t.root, t.height = 1, 1
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open binds to an existing tree file.
func Open(pool *buffer.Pool, name string) (*Tree, error) {
	d := pool.Disk()
	if !d.Exists(name) {
		return nil, fmt.Errorf("btree: no such file %q", name)
	}
	t := &Tree{Name: name, pool: pool, npages: int64(d.NumBlocks(name))}
	raw, err := d.Read(name, 0)
	if err != nil {
		return nil, err
	}
	t.root = int64(binary.LittleEndian.Uint64(raw[0:8]))
	t.height = int(binary.LittleEndian.Uint64(raw[8:16]))
	return t, nil
}

func (t *Tree) writeMeta() error {
	buf := make([]byte, t.pool.Disk().BlockSize())
	binary.LittleEndian.PutUint64(buf[0:8], uint64(t.root))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(t.height))
	return t.pool.Disk().Write(t.Name, 0, buf)
}

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// NumPages returns the file size in pages (including the meta page).
func (t *Tree) NumPages() int64 { return t.npages }

func (t *Tree) readNode(pno int64) (*node, error) {
	id := buffer.PageID{File: t.Name, Block: pno}
	raw, err := t.pool.Pin(id)
	if err != nil {
		return nil, err
	}
	defer t.pool.Unpin(id)
	return decodeNode(raw)
}

func (t *Tree) writeNode(pno int64, n *node) error {
	id := buffer.PageID{File: t.Name, Block: pno}
	raw, err := t.pool.Pin(id)
	if err != nil {
		return err
	}
	n.encode(raw)
	t.pool.MarkDirty(id)
	t.pool.Unpin(id)
	return nil
}

func (t *Tree) appendNode(n *node) (int64, error) {
	buf := make([]byte, t.pool.Disk().BlockSize())
	n.encode(buf)
	pno, err := t.pool.Disk().Append(t.Name, buf)
	if err != nil {
		return 0, err
	}
	t.npages = pno + 1
	return pno, nil
}

// ---- Bulk load --------------------------------------------------------------

// Item is one (key, payload) pair for bulk loading.
type Item struct {
	Key     tuple.Value
	Payload []byte
}

// BulkLoad replaces the tree's contents with the given key-sorted items,
// packing leaves to the fill factor (0 < ff <= 1, default 1.0) and building
// internal levels bottom-up.
func (t *Tree) BulkLoad(items []Item, ff float64) error {
	if ff <= 0 || ff > 1 {
		ff = 1.0
	}
	for i := 1; i < len(items); i++ {
		if tuple.Compare(items[i-1].Key, items[i].Key) > 0 {
			return fmt.Errorf("btree: bulk-load input not sorted at %d", i)
		}
	}
	blockSize := t.pool.Disk().BlockSize()
	limit := int(float64(blockSize) * ff)
	if limit < hdrSize+64 {
		limit = blockSize
	}

	// Build leaves.
	type built struct {
		pno int64
		min tuple.Value
	}
	var level []built
	cur := &node{leaf: true, next: invalidPno}
	var curMin tuple.Value
	flush := func() error {
		if len(cur.entries) == 0 {
			return nil
		}
		pno, err := t.appendNode(cur)
		if err != nil {
			return err
		}
		level = append(level, built{pno: pno, min: curMin})
		cur = &node{leaf: true, next: invalidPno}
		return nil
	}
	for _, it := range items {
		esz := tuple.Tuple{it.Key}.EncodedSize() + 4 + len(it.Payload)
		if len(cur.entries) > 0 && cur.encodedSize()+esz > limit {
			if err := flush(); err != nil {
				return err
			}
		}
		if len(cur.entries) == 0 {
			curMin = it.Key
		}
		cur.entries = append(cur.entries, entry{key: it.Key, payload: it.Payload})
	}
	if err := flush(); err != nil {
		return err
	}
	if len(level) == 0 {
		// Empty tree: single empty leaf root.
		pno, err := t.appendNode(&node{leaf: true, next: invalidPno})
		if err != nil {
			return err
		}
		t.root, t.height = pno, 1
		return t.writeMeta()
	}
	// Chain leaves.
	for i := 0; i < len(level)-1; i++ {
		n, err := t.readNode(level[i].pno)
		if err != nil {
			return err
		}
		n.next = level[i+1].pno
		if err := t.writeNode(level[i].pno, n); err != nil {
			return err
		}
	}
	// Build internal levels.
	height := 1
	for len(level) > 1 {
		var parents []built
		cur := &node{leaf: false, next: invalidPno}
		var curMin tuple.Value
		flushI := func() error {
			if len(cur.entries) == 0 {
				return nil
			}
			pno, err := t.appendNode(cur)
			if err != nil {
				return err
			}
			parents = append(parents, built{pno: pno, min: curMin})
			cur = &node{leaf: false, next: invalidPno}
			return nil
		}
		for _, ch := range level {
			esz := tuple.Tuple{ch.min}.EncodedSize() + 8
			if len(cur.entries) > 0 && cur.encodedSize()+esz > limit {
				if err := flushI(); err != nil {
					return err
				}
			}
			if len(cur.entries) == 0 {
				curMin = ch.min
			}
			cur.entries = append(cur.entries, entry{key: ch.min, child: ch.pno})
		}
		if err := flushI(); err != nil {
			return err
		}
		level = parents
		height++
	}
	t.root, t.height = level[0].pno, height
	return t.writeMeta()
}

// ---- Search ----------------------------------------------------------------

// childFor returns the child to descend into for key k. The descent is
// left-biased — it picks the child *before* the first separator >= k — so
// that runs of duplicate keys spanning a leaf boundary are found from their
// first occurrence (Range chains forward through leaf next-pointers).
func (n *node) childFor(k tuple.Value) int64 {
	lo, hi := 0, len(n.entries) // first index with key >= k
	for lo < hi {
		mid := (lo + hi) / 2
		if tuple.Compare(n.entries[mid].key, k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		lo--
	}
	return n.entries[lo].child
}

// findLeaf descends to the leaf that would contain k, returning the leaf's
// page number and decoded node, plus the root-to-leaf path (for splits).
func (t *Tree) findLeaf(k tuple.Value) (int64, *node, []int64, error) {
	pno := t.root
	var path []int64
	for {
		n, err := t.readNode(pno)
		if err != nil {
			return 0, nil, nil, err
		}
		if n.leaf {
			return pno, n, path, nil
		}
		if len(n.entries) == 0 {
			return 0, nil, nil, fmt.Errorf("btree: empty internal node at page %d", pno)
		}
		path = append(path, pno)
		pno = n.childFor(k)
	}
}

// Search returns the payloads of all entries with key == k.
func (t *Tree) Search(k tuple.Value) ([][]byte, error) {
	var out [][]byte
	err := t.Range(k, k, func(key tuple.Value, payload []byte) bool {
		out = append(out, payload)
		return true
	})
	return out, err
}

// Range iterates entries with lo <= key <= hi in key order. Invalid lo means
// "from the start"; invalid hi means "to the end". fn returning false stops.
func (t *Tree) Range(lo, hi tuple.Value, fn func(key tuple.Value, payload []byte) bool) error {
	return t.RangeFrom(lo, hi, 0, fn)
}

// RangeFrom is Range but may start at a given leaf ordinal offset (skipping
// whole leaves); used by the ordered-scan split in Figure 9's experiment
// where the second join packet re-reads only the skipped prefix.
func (t *Tree) RangeFrom(lo, hi tuple.Value, skipLeaves int, fn func(key tuple.Value, payload []byte) bool) error {
	var pno int64
	if lo.IsValid() {
		p, _, _, err := t.findLeaf(lo)
		if err != nil {
			return err
		}
		pno = p
	} else {
		// Leftmost leaf.
		p := t.root
		for {
			n, err := t.readNode(p)
			if err != nil {
				return err
			}
			if n.leaf {
				pno = p
				break
			}
			if len(n.entries) == 0 {
				return fmt.Errorf("btree: empty internal node at page %d", p)
			}
			p = n.entries[0].child
		}
	}
	for skipLeaves > 0 && pno != invalidPno {
		n, err := t.readNode(pno)
		if err != nil {
			return err
		}
		pno = n.next
		skipLeaves--
	}
	for pno != invalidPno {
		n, err := t.readNode(pno)
		if err != nil {
			return err
		}
		for _, e := range n.entries {
			if lo.IsValid() && tuple.Compare(e.key, lo) < 0 {
				continue
			}
			if hi.IsValid() && tuple.Compare(e.key, hi) > 0 {
				return nil
			}
			if !fn(e.key, e.payload) {
				return nil
			}
		}
		pno = n.next
	}
	return nil
}

// ScanLeaves iterates leaves in key order, invoking fn once per leaf with
// the leaf ordinal and its entries. Used by the clustered index-scan
// µEngine, which needs page-granular progress for OSP bookkeeping.
func (t *Tree) ScanLeaves(fn func(ord int, keys []tuple.Value, payloads [][]byte) bool) error {
	// Descend to leftmost leaf.
	pno := t.root
	for {
		n, err := t.readNode(pno)
		if err != nil {
			return err
		}
		if n.leaf {
			break
		}
		if len(n.entries) == 0 {
			return fmt.Errorf("btree: empty internal node at page %d", pno)
		}
		pno = n.entries[0].child
	}
	ord := 0
	for pno != invalidPno {
		n, err := t.readNode(pno)
		if err != nil {
			return err
		}
		keys := make([]tuple.Value, len(n.entries))
		payloads := make([][]byte, len(n.entries))
		for i, e := range n.entries {
			keys[i] = e.key
			payloads[i] = e.payload
		}
		if !fn(ord, keys, payloads) {
			return nil
		}
		pno = n.next
		ord++
	}
	return nil
}

// LeafPageNos walks the leaf chain returning leaf page numbers in key
// order. Scan engines cache this list so repeated scans address leaves
// directly (one buffered page read per leaf).
func (t *Tree) LeafPageNos() ([]int64, error) {
	pno := t.root
	for {
		n, err := t.readNode(pno)
		if err != nil {
			return nil, err
		}
		if n.leaf {
			break
		}
		if len(n.entries) == 0 {
			return nil, fmt.Errorf("btree: empty internal node at page %d", pno)
		}
		pno = n.entries[0].child
	}
	var out []int64
	for pno != invalidPno {
		out = append(out, pno)
		n, err := t.readNode(pno)
		if err != nil {
			return nil, err
		}
		pno = n.next
	}
	return out, nil
}

// ReadLeafTuples decodes one leaf page's payloads into s as tuples of ncols
// columns (clustered index leaves store full tuples), straight from the
// pinned page: keys are skipped rather than decoded and no payload is copied
// first. s is a scan worker's reused scratch or a fresh Scratch, as in
// heap.File.ReadPage.
func (t *Tree) ReadLeafTuples(pno int64, ncols int, s *tuple.Scratch) error {
	id := buffer.PageID{File: t.Name, Block: pno}
	buf, err := t.pool.Pin(id)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(id)
	if buf[0] != 1 {
		return fmt.Errorf("btree: page %d is not a leaf", pno)
	}
	cnt := int(binary.LittleEndian.Uint16(buf[1:3]))
	s.Reset(cnt, ncols)
	off := hdrSize
	for i := 0; i < cnt; i++ {
		kw, err := tuple.ValueLen(buf[off:])
		if err != nil {
			return fmt.Errorf("btree: leaf %d entry %d: %w", pno, i, err)
		}
		off += kw
		if off+4 > len(buf) {
			return fmt.Errorf("btree: leaf %d entry %d: truncated payload length", pno, i)
		}
		ln := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if off+ln > len(buf) {
			return fmt.Errorf("btree: leaf %d entry %d: truncated payload", pno, i)
		}
		if err := s.Decode(buf[off:off+ln], ncols); err != nil {
			return fmt.Errorf("btree: leaf %d entry %d: %w", pno, i, err)
		}
		off += ln
	}
	return nil
}

// NumLeaves counts leaf pages (a full leaf walk; used at plan time to size
// ordered-scan sharing decisions).
func (t *Tree) NumLeaves() (int, error) {
	n := 0
	err := t.ScanLeaves(func(int, []tuple.Value, [][]byte) bool { n++; return true })
	return n, err
}

// ---- Insert ----------------------------------------------------------------

// Insert adds one (key, payload) entry, splitting nodes as needed.
// Duplicate keys are allowed (stored adjacent).
func (t *Tree) Insert(k tuple.Value, payload []byte) error {
	pno, leaf, path, err := t.findLeaf(k)
	if err != nil {
		return err
	}
	// Insert sorted within the leaf.
	ix := len(leaf.entries)
	for i, e := range leaf.entries {
		if tuple.Compare(e.key, k) > 0 {
			ix = i
			break
		}
	}
	leaf.entries = append(leaf.entries, entry{})
	copy(leaf.entries[ix+1:], leaf.entries[ix:])
	leaf.entries[ix] = entry{key: k, payload: payload}

	blockSize := t.pool.Disk().BlockSize()
	if leaf.encodedSize() <= blockSize {
		return t.writeNode(pno, leaf)
	}
	// Split the leaf.
	mid := len(leaf.entries) / 2
	right := &node{leaf: true, next: leaf.next, entries: append([]entry(nil), leaf.entries[mid:]...)}
	leaf.entries = leaf.entries[:mid]
	rpno, err := t.appendNode(right)
	if err != nil {
		return err
	}
	leaf.next = rpno
	if err := t.writeNode(pno, leaf); err != nil {
		return err
	}
	return t.insertIntoParent(path, pno, right.entries[0].key, rpno)
}

// insertIntoParent propagates a split upward. The new (sepKey, childPno)
// entry is placed positionally — immediately after the entry pointing at
// leftPno, the child that split — rather than by key search: separator keys
// record a child's minimum *at creation* and can go stale once smaller keys
// are inserted below, so key-ordered insertion could break child ordering.
func (t *Tree) insertIntoParent(path []int64, leftPno int64, sepKey tuple.Value, childPno int64) error {
	blockSize := t.pool.Disk().BlockSize()
	for len(path) > 0 {
		ppno := path[len(path)-1]
		path = path[:len(path)-1]
		parent, err := t.readNode(ppno)
		if err != nil {
			return err
		}
		ix := -1
		for i, e := range parent.entries {
			if e.child == leftPno {
				ix = i + 1
				break
			}
		}
		if ix < 0 {
			return fmt.Errorf("btree: parent %d has no entry for split child %d", ppno, leftPno)
		}
		parent.entries = append(parent.entries, entry{})
		copy(parent.entries[ix+1:], parent.entries[ix:])
		parent.entries[ix] = entry{key: sepKey, child: childPno}
		if parent.encodedSize() <= blockSize {
			return t.writeNode(ppno, parent)
		}
		mid := len(parent.entries) / 2
		right := &node{leaf: false, next: invalidPno, entries: append([]entry(nil), parent.entries[mid:]...)}
		parent.entries = parent.entries[:mid]
		rpno, err := t.appendNode(right)
		if err != nil {
			return err
		}
		if err := t.writeNode(ppno, parent); err != nil {
			return err
		}
		leftPno, sepKey, childPno = ppno, right.entries[0].key, rpno
	}
	// Split reached the root: grow a new root.
	oldRoot := t.root
	oldMin, err := t.minKey(oldRoot)
	if err != nil {
		return err
	}
	newRoot := &node{leaf: false, next: invalidPno, entries: []entry{
		{key: oldMin, child: oldRoot},
		{key: sepKey, child: childPno},
	}}
	rpno, err := t.appendNode(newRoot)
	if err != nil {
		return err
	}
	t.root = rpno
	t.height++
	return t.writeMeta()
}

func (t *Tree) minKey(pno int64) (tuple.Value, error) {
	n, err := t.readNode(pno)
	if err != nil {
		return tuple.Value{}, err
	}
	if len(n.entries) == 0 {
		return tuple.Value{}, nil
	}
	return n.entries[0].key, nil
}

// Count returns the number of entries (leaf walk).
func (t *Tree) Count() (int64, error) {
	var n int64
	err := t.ScanLeaves(func(_ int, keys []tuple.Value, _ [][]byte) bool {
		n += int64(len(keys))
		return true
	})
	return n, err
}

// Validate walks the tree checking structural invariants: key order within
// nodes, separator correctness, and leaf-chain ordering. Used by property
// tests after randomized insert workloads.
func (t *Tree) Validate() error {
	var prev *tuple.Value
	var verr error
	err := t.ScanLeaves(func(ord int, keys []tuple.Value, _ [][]byte) bool {
		for i := range keys {
			if prev != nil && tuple.Compare(*prev, keys[i]) > 0 {
				verr = fmt.Errorf("btree: leaf chain out of order at leaf %d entry %d", ord, i)
				return false
			}
			k := keys[i]
			prev = &k
		}
		return true
	})
	if err != nil {
		return err
	}
	return verr
}
