package main

import (
	"context"
	"sync"
	"time"

	"qpipe"
)

// scan-burst sizes: orders is about 9x the buffer pool, so every query
// misses and OSP's circular-scan sharing decides the blocks read. The disk
// latencies are the ones the planshare figure uses.
const (
	burstOrders    = 200_000
	burstCustomers = burstOrders / 15
	burstPoolPages = 128
	burstSeqRead   = 25 * time.Microsecond
	burstRandRead  = 40 * time.Microsecond
)

type scanBurst struct {
	cfg   config
	data  *dataset
	qdb   *qpipe.DB
	bufs  []resultBuf // one per client
	round int         // statement sequence position, kept across phases
}

func setupScanBurst(cfg config) (instance, error) {
	s := &scanBurst{cfg: cfg, data: genDataset(cfg.seed, burstOrders, burstCustomers),
		bufs: make([]resultBuf, cfg.nproc)}
	db, err := loadDataset(qpipe.Options{PoolPages: burstPoolPages}, s.data)
	if err != nil {
		return nil, err
	}
	s.qdb = db
	if err := db.DropCaches(); err != nil {
		db.Close()
		return nil, err
	}
	db.SetDiskLatency(burstSeqRead, burstRandRead, 0)
	return s, nil
}

// loadDataset opens a database and loads orders and customers into it.
func loadDataset(opts qpipe.Options, d *dataset) (*qpipe.DB, error) {
	db, err := qpipe.Open(opts)
	if err != nil {
		return nil, err
	}
	if _, err := db.Exec(context.Background(), datasetDDL); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Load("orders", d.orderRows()); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Load("customers", d.customerRows()); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

func (s *scanBurst) db() *qpipe.DB         { return s.qdb }
func (s *scanBurst) server() *qpipe.Server { return nil }
func (s *scanBurst) finish(*recorder)      {}
func (s *scanBurst) close()                { s.qdb.Close() }

func (s *scanBurst) describe() map[string]any {
	pages, _ := s.qdb.TablePages("orders")
	return map[string]any{
		"orders_rows": burstOrders, "customers_rows": burstCustomers, "orders_pages": pages,
		"pool_pages": burstPoolPages, "disk_latency": "seq 25us, rand 40us, write 0",
		"clients": s.cfg.nproc, "loop": "closed, in rounds: all clients submit one spelling each at once",
	}
}

// load runs rounds until stop: in each round every client submits, at the
// same instant, a different spelling of the round's statement.
func (s *scanBurst) load(stop <-chan struct{}, rec *recorder) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		round := s.round
		s.round++
		q := burstQuery(s.cfg.seed, round)
		gate := make(chan struct{})
		var wg sync.WaitGroup
		for c := range s.bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				text := q.spellings[(c+round)%len(q.spellings)]
				<-gate
				buf := &s.bufs[c]
				timedRead(rec, q, s.data, buf, func(req *request) (*qpipe.Query, error) {
					return localRead(s.qdb, req, text, buf)
				})
			}()
		}
		close(gate)
		wg.Wait()
	}
}
