package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"qpipe"
)

// write-mix sizes: a durable database whose accounts table is about twice
// its pool, read through the scan-burst disk latency; one open-loop writer
// moves money between accounts while closed-loop readers aggregate the
// whole table. Reads spend about half their time on the simulated device:
// with the table in memory they were CPU-bound only, and on a shared host
// reader throughput then swung by 40% between runs. The writer rate keeps
// the table X-locked a small share of the time; at twice the rate reads
// convoyed behind transfers in some runs and not others.
const (
	mixAccounts  = 30_000
	mixTxPerSec  = 10
	flushPolicy  = "fsync per WAL group commit (durable Options.Dir, as shipped)"
	mixPoolPages = 64
)

type writeMix struct {
	cfg   config
	dir   string
	qdb   *qpipe.DB
	accts []account // committed state as the writer saw it acknowledged
	rows  int64
	total float64 // sum(amount), which every transfer preserves
	bufs  []resultBuf
	nextT int // transfer sequence position, kept across phases

	// started counts commits begun and acked commits returned: a read that
	// starts at started == k and ends at acked == k saw exactly the state
	// after k commits, so its answer can be compared bit for bit.
	started, acked atomic.Int64
}

func setupWriteMix(cfg config) (instance, error) {
	dir, err := os.MkdirTemp(cfg.out, "write-mix-")
	if err != nil {
		return nil, err
	}
	w := &writeMix{cfg: cfg, dir: dir, accts: genAccounts(cfg.seed, mixAccounts), rows: mixAccounts,
		bufs: make([]resultBuf, max(1, cfg.nproc-1))}
	for _, a := range w.accts {
		w.total += a.amount
	}
	db, err := qpipe.Open(qpipe.Options{Dir: dir, PoolPages: mixPoolPages})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w.qdb = db
	if _, err := db.Exec(context.Background(), accountsDDL); err != nil {
		w.close()
		return nil, err
	}
	if err := db.Load("accounts", accountRows(w.accts)); err != nil {
		w.close()
		return nil, err
	}
	db.SetDiskLatency(burstSeqRead, burstRandRead, 0)
	return w, nil
}

func (w *writeMix) db() *qpipe.DB         { return w.qdb }
func (w *writeMix) server() *qpipe.Server { return nil }

func (w *writeMix) close() {
	if w.qdb != nil {
		w.qdb.Close()
	}
	os.RemoveAll(w.dir)
}

func (w *writeMix) describe() map[string]any {
	var pages int64
	if w.qdb != nil { // nil when the reopen in finish failed
		pages, _ = w.qdb.TablePages("accounts")
	}
	return map[string]any{
		"accounts_rows": mixAccounts, "accounts_pages": pages, "pool_pages": mixPoolPages,
		"disk_latency": "seq 25us, rand 40us, write 0 (simulated device; fsync is real)",
		"flush_policy": flushPolicy, "writer": fmt.Sprintf("open loop, %d tx/s, each jittered within its period, 2 UPDATEs per tx", mixTxPerSec),
		"readers": fmt.Sprintf("%d closed loop", len(w.bufs)),
	}
}

func (w *writeMix) load(stop <-chan struct{}, rec *recorder) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.writer(stop, rec)
	}()
	for i := range w.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w.read(rec, &w.bufs[i])
			}
		}()
	}
	wg.Wait()
}

// writer issues mixTxPerSec transfers a second, each on its seeded
// schedule whether or not the previous one has finished waiting on locks,
// and times each from when it was due.
func (w *writeMix) writer(stop <-chan struct{}, rec *recorder) {
	period := time.Second / mixTxPerSec
	start := time.Now()
	for k := 0; ; k++ {
		t := genTransfer(w.cfg.seed, w.nextT, mixAccounts)
		w.nextT++
		due := start.Add(time.Duration((float64(k) + t.jitter) * float64(period)))
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		late := max(0, time.Since(due))
		begin := time.Now()
		req := rec.tr.begin("tx", begin)
		lsn := walLSN(w.qdb)
		err := w.transfer(req, begin, t)
		end := time.Now()
		req.finish(end)
		rec.commit(end.Sub(due), late, walBytes(lsn, walLSN(w.qdb)), err)
	}
}

func (w *writeMix) transfer(req *request, begin time.Time, t transfer) error {
	ctx := context.Background()
	tx := w.qdb.Begin()
	defer tx.Rollback() // no-op once committed
	_, err := tx.Exec(ctx, t.sql())
	t1 := time.Now()
	req.child("sm.tx_exec", begin, t1)
	if err != nil {
		return err
	}
	w.started.Add(1)
	err = tx.Commit(ctx)
	req.child("wal.commit", t1, time.Now())
	if err != nil {
		return err
	}
	t.apply(w.accts)
	w.acked.Add(1)
	return nil
}

func (w *writeMix) read(rec *recorder, buf *resultBuf) {
	before := w.started.Load()
	start := time.Now()
	req := rec.tr.begin("read", start)
	prepared, err := localRead(w.qdb, req, readerSQL, buf)
	end := time.Now()
	req.finish(end)
	var key string
	if after := w.acked.Load(); after == before {
		key = fmt.Sprintf("accounts@%d", after)
	}
	var checkErr error
	if err == nil {
		checkErr = checkAccounts(buf, w.rows, w.total)
	}
	rec.read(end.Sub(start), key, buf.digest(), err, checkErr)
	if prepared != nil {
		if p, err := prepared.Plan(); err == nil {
			rec.signature(readerSQL, p.Signature())
		}
	}
}

// finish is the durability check: close the database, reopen the directory
// (Open runs recovery) and verify every acknowledged transfer is there.
// Each account row that is missing, extra or off balance counts as a lost
// write.
func (w *writeMix) finish(rec *recorder) {
	lost, err := w.recover()
	rec.lost = lost
	rec.failed += lost
	if err != nil {
		rec.noteErr(err)
	}
}

func (w *writeMix) recover() (lost int64, err error) {
	all := int64(len(w.accts))
	w.qdb.Close()
	w.qdb, err = qpipe.Open(qpipe.Options{Dir: w.dir, PoolPages: mixPoolPages})
	if err != nil {
		w.qdb = nil
		return all, fmt.Errorf("reopen after close: %w", err)
	}
	var buf resultBuf
	if _, err := localRead(w.qdb, nil, "SELECT aid, amount FROM accounts", &buf); err != nil {
		return all, fmt.Errorf("read after reopen: %w", err)
	}
	found := int64(0)
	seen := make([]bool, len(w.accts))
	for i := 0; i < buf.len(); i++ {
		row := buf.row(i)
		aid := row[0].I
		if aid >= 0 && aid < all && !seen[aid] && floatClose(row[1].F, w.accts[aid].amount) {
			seen[aid] = true
			found++
		}
	}
	// Missing or wrong accounts, plus any rows beyond the ones expected.
	if lost = (all - found) + (int64(buf.len()) - found); lost > 0 {
		return lost, fmt.Errorf("%d account rows differ after reopen (%d of %d match)", lost, found, all)
	}
	return 0, nil
}
