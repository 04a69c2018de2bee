package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, made from the benchmark's side of
// the public API. The spans of one request share Req; the request's root
// span has ID 0 and Parent -1, and covers the request's wall time.
type span struct {
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every finished request's spans in memory until the run ends.
// A nil *tracer records nothing, which is how the untraced runs measure.
type tracer struct {
	epoch time.Time
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// request gathers one request's spans on its own goroutine.
type request struct {
	t     *tracer
	spans []span
}

// begin opens a request whose root span starts at start. It returns nil
// when tracing is off; every method of a nil *request is a no-op.
func (t *tracer) begin(name string, start time.Time) *request {
	if t == nil {
		return nil
	}
	id := t.reqs.Add(1)
	return &request{t: t, spans: []span{{Req: id, Parent: -1, Name: name, Start: t.ns(start)}}}
}

// child records a span of the request's root between start and end.
func (r *request) child(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{Req: r.spans[0].Req, ID: int32(len(r.spans)), Name: name,
		Start: r.t.ns(start), End: r.t.ns(end)})
}

// finish closes the root span at end and hands the request to the tracer.
func (r *request) finish(end time.Time) {
	if r == nil {
		return
	}
	r.spans[0].End = r.t.ns(end)
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.spans...)
	r.t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfEps is the largest allowed gap, as a share of a request's wall time,
// between the sum of its spans' self times and that wall time. Spans come
// from one clock and nest by construction, so any gap means a span escaped
// its parent or overlapped a sibling.
const selfEps = 1e-3

// layerTimes aggregates spans by name.
type layerTimes struct {
	durUS map[string][]float64 // span durations, µs
	self  map[string]int64     // total self time, ns
	wall  map[string]int64     // total wall time of the requests holding the span, ns
	// maxSelfErr is the largest |sum of self times - wall| / wall over requests.
	maxSelfErr float64
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var covered, end int64
	end = math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.End - s.Start - covered
}

func analyzeSpans(spans []span) (layerTimes, error) {
	lt := layerTimes{durUS: map[string][]float64{}, self: map[string]int64{}, wall: map[string]int64{}}
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].Req == spans[i].Req {
			j++
		}
		req := spans[i:j]
		i = j
		root := req[0]
		if root.Parent != -1 {
			return lt, fmt.Errorf("request %d does not start with its root span", root.Req)
		}
		wall := root.End - root.Start
		var selfSum int64
		for _, s := range req {
			var children []span
			for _, c := range req {
				if c.Parent == s.ID {
					children = append(children, c)
				}
			}
			self := selfTime(s, children)
			selfSum += self
			lt.durUS[s.Name] = append(lt.durUS[s.Name], float64(s.End-s.Start)/1e3)
			lt.self[s.Name] += self
			lt.wall[s.Name] += wall
		}
		if wall > 0 {
			lt.maxSelfErr = max(lt.maxSelfErr, math.Abs(float64(selfSum-wall))/float64(wall))
		}
	}
	return lt, nil
}

func (lt layerTimes) p50(name string) float64 { return percentile(lt.durUS[name], 50) }

func (lt layerTimes) selfShare(name string) float64 {
	return ratio(float64(lt.self[name]), float64(lt.wall[name]))
}
