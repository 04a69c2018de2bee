package main

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"time"

	"qpipe"
	"qpipe/client"
	"qpipe/sql"
)

// recorder collects one measurement phase: latencies, failures, answer
// digests and, when traced, spans. All methods are safe for concurrent use.
type recorder struct {
	tr *tracer // nil: tracing off

	mu      sync.Mutex
	reads   []time.Duration // completed reads, submit to last row
	commits []time.Duration // acknowledged commits, due time to Commit return
	late    []time.Duration // open-loop start delay behind the due time
	walDiff []int64         // WAL bytes appended per commit
	// answers maps an answer key to the distinct exact digests seen for it.
	answers map[string]map[uint64]bool
	// sigs maps an answer key to the distinct plan signatures its
	// spellings prepared to (traced runs only).
	sigs map[string]map[string]bool

	attempted, failed int64
	mismatches        int64 // answers that failed their reference check
	lost              int64 // acknowledged writes missing after reopen
	torn              int64 // reads failed by the snapshot fence
	firstErr          string

	elapsed       time.Duration
	before, after counters
	heapPeak      float64 // bytes
}

func newRecorder(tr *tracer) *recorder {
	return &recorder{tr: tr, answers: map[string]map[uint64]bool{}, sigs: map[string]map[string]bool{}}
}

func (rec *recorder) noteErr(err error) {
	if rec.firstErr == "" {
		rec.firstErr = err.Error()
	}
}

// read records one read: err is the engine's error, checkErr the answer
// check's. Either makes the read a failure; only a clean read has a latency.
func (rec *recorder) read(lat time.Duration, key string, digest uint64, err, checkErr error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.attempted++
	switch {
	case err != nil:
		rec.failed++
		if strings.Contains(err.Error(), "torn scan") {
			rec.torn++
		}
		rec.noteErr(err)
	case checkErr != nil:
		rec.failed++
		rec.mismatches++
		rec.noteErr(errors.New(key + ": " + checkErr.Error()))
	default:
		rec.reads = append(rec.reads, lat)
		if key != "" {
			if rec.answers[key] == nil {
				rec.answers[key] = map[uint64]bool{}
			}
			rec.answers[key][digest] = true
		}
	}
}

// commit records one write transaction of the open-loop writer.
func (rec *recorder) commit(sinceDue, late time.Duration, walBytes int64, err error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.attempted++
	rec.late = append(rec.late, late)
	if err != nil {
		rec.failed++
		rec.noteErr(err)
		return
	}
	rec.commits = append(rec.commits, sinceDue)
	if walBytes >= 0 {
		rec.walDiff = append(rec.walDiff, walBytes)
	}
}

func (rec *recorder) signature(key, sig string) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.sigs[key] == nil {
		rec.sigs[key] = map[string]bool{}
	}
	rec.sigs[key][sig] = true
}

// answerVariants counts answer keys whose results were not bit-identical
// every time they were returned.
func (rec *recorder) answerVariants() int {
	n := 0
	for _, ds := range rec.answers {
		if len(ds) > 1 {
			n++
		}
	}
	return n
}

// timedRead runs one read through do, then checks and records it. The
// answer check runs after the clock stops.
func timedRead(rec *recorder, q query, data *dataset, buf *resultBuf, do func(*request) (*qpipe.Query, error)) {
	start := time.Now()
	req := rec.tr.begin("read", start)
	prepared, err := do(req)
	end := time.Now()
	req.finish(end)
	var checkErr error
	if err == nil {
		checkErr = q.shape.check(data, buf)
	}
	rec.read(end.Sub(start), q.key, buf.digest(), err, checkErr)
	if prepared != nil {
		if p, err := prepared.Plan(); err == nil {
			rec.signature(q.key, p.Signature())
		}
	}
}

// localRead runs one SELECT in-process and collects its rows into buf. An
// untraced read is one db.Query call; a traced read is split into the
// calls each layer serves — sql.Parse on the text (timed on its own),
// db.Prepare, Query.Run, the first row, the rest of the rows — and also
// returns the prepared query so its plan signature can be recorded.
func localRead(db *qpipe.DB, req *request, text string, buf *resultBuf) (*qpipe.Query, error) {
	ctx := context.Background()
	buf.reset()
	if req == nil {
		res, err := db.Query(ctx, text)
		if err != nil {
			return nil, err
		}
		for row := range res.Rows() {
			buf.add1(row)
		}
		return nil, res.Err()
	}
	t0 := time.Now()
	_, err := sql.Parse(text)
	t1 := time.Now()
	req.child("sql.parse", t0, t1)
	if err != nil {
		return nil, err
	}
	q, err := db.Prepare(text)
	t2 := time.Now()
	req.child("plan.prepare", t1, t2)
	if err != nil {
		return nil, err
	}
	res, err := q.Run(ctx)
	t3 := time.Now()
	req.child("core.submit", t2, t3)
	if err != nil {
		return q, err
	}
	first := true
	for row := range res.Rows() {
		if first {
			t4 := time.Now()
			req.child("core.first_batch", t3, t4)
			t3, first = t4, false
		}
		buf.add1(row)
	}
	err = res.Err()
	end := time.Now()
	if first {
		req.child("core.first_batch", t3, end)
	} else {
		req.child("core.drain", t3, end)
	}
	return q, err
}

// wireRead runs one SELECT through a wire connection and collects its rows
// into buf. Traced, it also times sql.Parse and db.Prepare on the same text
// in this process (the server runs here too), then client.Query, the first
// batch and the rest of the batches.
func wireRead(conn *client.Conn, db *qpipe.DB, req *request, text string, buf *resultBuf) (*qpipe.Query, error) {
	ctx := context.Background()
	buf.reset()
	var q *qpipe.Query
	t0 := time.Now()
	if req != nil {
		if _, err := sql.Parse(text); err != nil {
			return nil, err
		}
		t1 := time.Now()
		req.child("sql.parse", t0, t1)
		var err error
		if q, err = db.Prepare(text); err != nil {
			return nil, err
		}
		t0 = time.Now()
		req.child("plan.prepare", t1, t0)
	}
	rows, err := conn.Query(ctx, text)
	t1 := time.Now()
	req.child("wire.query", t0, t1)
	if err != nil {
		return q, err
	}
	first := true
	for {
		b, err := rows.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return q, err
		}
		if first {
			t2 := time.Now()
			req.child("wire.first_batch", t1, t2)
			t1, first = t2, false
		}
		buf.add(b)
	}
	end := time.Now()
	if first {
		req.child("wire.first_batch", t1, end)
	} else {
		req.child("wire.drain", t1, end)
	}
	return q, nil
}
