// Package heap implements heap files: unordered sequences of slotted pages
// holding one table's tuples, accessed through the buffer pool. Heap files
// are the substrate for file scans — the operator whose sharing behaviour
// (linear WoP, circular scans) drives most of the paper's experiments.
package heap

import (
	"errors"
	"fmt"
	"sync"

	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/page"
	"qpipe/internal/tuple"
)

// RID identifies a tuple by page number and slot.
type RID struct {
	Page int64
	Slot int
}

func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// Less orders RIDs by page then slot — unclustered index scans sort RID
// lists in ascending page order to avoid revisiting pages (paper §3.2).
func (r RID) Less(o RID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}

// File is a heap file bound to a disk file name and a schema.
type File struct {
	Name   string
	Schema *tuple.Schema
	pool   *buffer.Pool

	mu       sync.Mutex
	npages   int64
	lastPage *page.Page // write buffer for bulk loading (not yet flushed)
	encBuf   []byte     // encode scratch reused across Appends (guarded by mu)
}

// Create makes a new empty heap file on the pool's disk.
func Create(pool *buffer.Pool, name string, schema *tuple.Schema) *File {
	pool.Disk().Create(name)
	return &File{Name: name, Schema: schema, pool: pool}
}

// Open binds to an existing heap file.
func Open(pool *buffer.Pool, name string, schema *tuple.Schema) (*File, error) {
	if !pool.Disk().Exists(name) {
		return nil, fmt.Errorf("heap: no such file %q", name)
	}
	return &File{
		Name:   name,
		Schema: schema,
		pool:   pool,
		npages: int64(pool.Disk().NumBlocks(name)),
	}, nil
}

// Pool returns the buffer pool the file reads through.
func (f *File) Pool() *buffer.Pool { return f.pool }

// NumPages returns the number of flushed pages.
func (f *File) NumPages() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.npages
}

// Append inserts a tuple at the end of the file (bulk-load path; goes
// straight to disk, bypassing the pool, like a real bulk loader would).
// Returns the tuple's RID. The encode scratch is reused across calls, so
// bulk loads (TPC-H/Wisconsin generators) pay no per-row allocation here.
func (f *File) Append(t tuple.Tuple) (RID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.encBuf = t.Encode(f.encBuf[:0])
	enc := f.encBuf
	if f.lastPage != nil && !f.lastPage.HasRoomFor(len(enc)) {
		if err := f.flushLastLocked(); err != nil {
			return RID{}, err
		}
	}
	if f.lastPage == nil {
		f.lastPage = page.New(f.pool.Disk().BlockSize())
	}
	slot, err := f.lastPage.Insert(enc)
	if err != nil {
		return RID{}, fmt.Errorf("heap: tuple larger than a page: %w", err)
	}
	return RID{Page: f.npages, Slot: slot}, nil
}

func (f *File) flushLastLocked() error {
	if f.lastPage == nil {
		return nil
	}
	if _, err := f.pool.Disk().Append(f.Name, f.lastPage.Bytes()); err != nil {
		return err
	}
	f.npages++
	f.lastPage = nil
	return nil
}

// Sync flushes the partially-filled tail page, making all appended tuples
// visible to scans.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushLastLocked()
}

// ReadPage pins page pno and decodes its live tuples into s (see
// page.DecodeInto): a scan worker's reused scratch, or a fresh Scratch whose
// rows the caller may publish as they are. The page is unpinned before
// returning (the rows are copies).
func (f *File) ReadPage(pno int64, s *tuple.Scratch) error {
	id := buffer.PageID{File: f.Name, Block: pno}
	raw, err := f.pool.Pin(id)
	if err != nil {
		return err
	}
	defer f.pool.Unpin(id)
	return page.FromBytes(raw).DecodeInto(f.Schema.Len(), s)
}

// ErrDeleted is returned by ReadTuple for a tombstoned RID. Unclustered
// indexes keep ghost entries for deleted rows (cleaned up only by a rebuild),
// so index fetch paths filter on this error rather than treating it as
// failure.
var ErrDeleted = errors.New("heap: tuple deleted")

// ReadTuple fetches a single tuple by RID. Returns ErrDeleted (possibly
// wrapped) if the slot is tombstoned.
func (f *File) ReadTuple(rid RID) (tuple.Tuple, error) {
	var fresh tuple.Scratch
	if err := f.ReadTupleInto(rid, &fresh); err != nil {
		return nil, err
	}
	return fresh.Rows[0], nil
}

// ReadTupleInto is ReadTuple into caller-owned decode space: the tuple at
// rid becomes s's only row (see tuple.Scratch).
func (f *File) ReadTupleInto(rid RID, s *tuple.Scratch) error {
	id := buffer.PageID{File: f.Name, Block: rid.Page}
	raw, err := f.pool.Pin(id)
	if err != nil {
		return err
	}
	defer f.pool.Unpin(id)
	p := page.FromBytes(raw)
	if p.Tombstone(rid.Slot) {
		return fmt.Errorf("heap: %s slot %d: %w", f.Name, rid.Slot, ErrDeleted)
	}
	payload, err := p.Payload(rid.Slot)
	if err != nil {
		return err
	}
	s.Reset(1, f.Schema.Len())
	return s.Decode(payload, f.Schema.Len())
}

// ReplaceAt overwrites the tuple at rid in place (same RID after the
// update). The page is mutated through the buffer pool and marked dirty;
// durability comes from the WAL, not from an immediate disk write. Only
// flushed pages can be mutated — the storage manager syncs tails at commit,
// so every committed row lives in a flushed page.
func (f *File) ReplaceAt(rid RID, t tuple.Tuple) error {
	if err := f.checkFlushed(rid); err != nil {
		return err
	}
	id := buffer.PageID{File: f.Name, Block: rid.Page}
	raw, err := f.pool.Pin(id)
	if err != nil {
		return err
	}
	defer f.pool.Unpin(id)
	p := page.FromBytes(raw)
	if err := p.ReplaceAt(rid.Slot, t.Encode(nil)); err != nil {
		return err
	}
	f.pool.MarkDirty(id)
	return nil
}

// DeleteAt tombstones the tuple at rid. Deleting an already-deleted slot is
// a no-op (redo idempotence). See ReplaceAt for the mutation discipline.
func (f *File) DeleteAt(rid RID) error {
	if err := f.checkFlushed(rid); err != nil {
		return err
	}
	id := buffer.PageID{File: f.Name, Block: rid.Page}
	raw, err := f.pool.Pin(id)
	if err != nil {
		return err
	}
	defer f.pool.Unpin(id)
	p := page.FromBytes(raw)
	if err := p.DeleteAt(rid.Slot); err != nil {
		return err
	}
	f.pool.MarkDirty(id)
	return nil
}

func (f *File) checkFlushed(rid RID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if rid.Page < 0 || rid.Page >= f.npages {
		return fmt.Errorf("heap: %s: rid %s not in flushed pages [0,%d)", f.Name, rid, f.npages)
	}
	return nil
}

// Scan iterates all live tuples in page order, invoking fn per tuple with
// its true RID (tombstoned slots are skipped, so RIDs are slot-accurate even
// on pages with deletions). fn returning false stops the scan early.
func (f *File) Scan(fn func(rid RID, t tuple.Tuple) bool) error {
	n := f.NumPages()
	ncols := f.Schema.Len()
	for pno := int64(0); pno < n; pno++ {
		id := buffer.PageID{File: f.Name, Block: pno}
		raw, err := f.pool.Pin(id)
		if err != nil {
			return err
		}
		p := page.FromBytes(raw)
		stop := false
		var arena tuple.RowArena
		arena.Grow(p.NumSlots() * ncols)
		for slot := 0; slot < p.NumSlots(); slot++ {
			if p.Tombstone(slot) {
				continue
			}
			payload, err := p.Payload(slot)
			if err != nil {
				f.pool.Unpin(id)
				return err
			}
			t, _, err := tuple.DecodeArena(payload, ncols, &arena)
			if err != nil {
				f.pool.Unpin(id)
				return err
			}
			if !fn(RID{Page: pno, Slot: slot}, t) {
				stop = true
				break
			}
		}
		f.pool.Unpin(id)
		if stop {
			return nil
		}
	}
	return nil
}

// Count returns the number of tuples (full scan).
func (f *File) Count() (int64, error) {
	var n int64
	err := f.Scan(func(RID, tuple.Tuple) bool { n++; return true })
	return n, err
}
