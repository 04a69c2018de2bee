package main

import (
	"context"
	"net"
	"sync"
	"time"

	"qpipe"
	"qpipe/client"
)

// adhoc-wire sizes: the data fits the default pool and is warmed before
// timing, so no query touches the disk and OSP has no I/O to save.
const (
	adhocOrders    = 60_000
	adhocCustomers = adhocOrders / 15
	adhocPoolPages = 1024
)

type adhocWire struct {
	cfg   config
	data  *dataset
	qdb   *qpipe.DB
	srv   *qpipe.Server
	serve chan error // Serve's return value
	conns []*client.Conn
	bufs  []resultBuf
	next  []int // per-connection statement sequence position
}

func setupAdhocWire(cfg config) (instance, error) {
	a := &adhocWire{cfg: cfg, data: genDataset(cfg.seed, adhocOrders, adhocCustomers),
		bufs: make([]resultBuf, cfg.nproc), next: make([]int, cfg.nproc)}
	db, err := loadDataset(qpipe.Options{PoolPages: adhocPoolPages}, a.data)
	if err != nil {
		return nil, err
	}
	a.qdb = db
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	a.srv = qpipe.NewServer(db, qpipe.ServerOptions{})
	a.serve = make(chan error, 1)
	go func() { a.serve <- a.srv.Serve(ln) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for range cfg.nproc {
		c, err := client.Connect(ctx, ln.Addr().String())
		if err != nil {
			a.close()
			return nil, err
		}
		a.conns = append(a.conns, c)
	}
	// Warm-up: read both tables whole, so every page is resident.
	for _, text := range []string{"SELECT count(*) AS n, sum(amount) AS s FROM orders",
		"SELECT count(*) AS n, sum(balance) AS s FROM customers"} {
		rows, err := a.conns[0].Query(ctx, text)
		if err == nil {
			_, err = rows.Discard()
		}
		if err != nil {
			a.close()
			return nil, err
		}
	}
	return a, nil
}

func (a *adhocWire) db() *qpipe.DB         { return a.qdb }
func (a *adhocWire) server() *qpipe.Server { return a.srv }
func (a *adhocWire) finish(*recorder)      {}

func (a *adhocWire) close() {
	for _, c := range a.conns {
		c.Close()
	}
	a.srv.Shutdown() // also closes the database
	<-a.serve
}

func (a *adhocWire) describe() map[string]any {
	pages, _ := a.qdb.TablePages("orders")
	return map[string]any{
		"orders_rows": adhocOrders, "customers_rows": adhocCustomers, "orders_pages": pages,
		"pool_pages": adhocPoolPages, "disk_latency": "none (data resident after warm-up)",
		"clients": len(a.conns), "loop": "closed, one wire connection per client over loopback",
	}
}

func (a *adhocWire) load(stop <-chan struct{}, rec *recorder) {
	var wg sync.WaitGroup
	for c, conn := range a.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := adhocQuery(a.cfg.seed, c, a.next[c])
				a.next[c]++
				buf := &a.bufs[c]
				timedRead(rec, q, a.data, buf, func(req *request) (*qpipe.Query, error) {
					return wireRead(conn, a.qdb, req, q.spellings[0], buf)
				})
			}
		}()
	}
	wg.Wait()
}
