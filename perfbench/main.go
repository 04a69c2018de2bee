// Command perfbench is the repository's benchmark: one seeded run of one
// workload against the qpipe engine, checked answer by answer. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it adds a
// traced phase and prints the per-layer metrics. The last line of standard
// output is the result as one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"qpipe"
)

// setupReps is how many times a run builds its workload's database; the
// median is setup_s and the last one is measured.
const setupReps = 11

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for spans and durable databases
	nproc    int
}

// instance is one built workload: a database (and, for adhoc-wire, a
// server and its connections) plus the load that drives it.
type instance interface {
	db() *qpipe.DB
	server() *qpipe.Server // nil when the workload does not use the wire
	// load drives the workload until stop is closed and every client has
	// finished its current operation.
	load(stop <-chan struct{}, rec *recorder)
	// finish runs the checks that need the load to have ended.
	finish(rec *recorder)
	close()
	// describe names the sizes and policies that make runs comparable.
	describe() map[string]any
}

type workload struct {
	why   string
	setup func(cfg config) (instance, error)
}

var workloads = map[string]workload{
	"scan-burst": {"simultaneous arrivals of equivalent spellings over a table 9x the buffer pool: OSP sharing, plan normalization, buffer misses, simulated disk", setupScanBurst},
	"adhoc-wire": {"unique ad hoc queries over loopback on data that fits the pool: parser, planner, operators, tbuf, wire codec and GC, with no I/O for OSP to save", setupAdhocWire},
	"write-mix":  {"open-loop transfers with fsync per group commit beside closed-loop aggregates: X locks, WAL group commit, commit fence, recovery", setupWriteMix},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: scan-burst, adhoc-wire or write-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same data and statements")
	flag.IntVar(&cfg.seconds, "seconds", 10, "seconds of measured load")
	flag.IntVar(&traceFlag, "trace", 0, "1: add a traced phase and report per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench-out", "directory for spans and temporary databases")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.nproc = runtime.NumCPU()
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload scan-burst|adhoc-wire|write-mix, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	// A hung engine must not hang the benchmark: give up well after the
	// measured time and a generous allowance for set-up and checks.
	time.AfterFunc(time.Duration(cfg.seconds)*time.Second+2*time.Minute, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run did not finish in time; giving up")
		os.Exit(1)
	})
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg config) (result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return result{}, err
	}
	w := workloads[cfg.workload]
	var setups []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return result{}, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	setupS := percentile(setups, 50)

	d := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		rec := measure(inst, d, nil)
		inst.finish(rec)
		report(cfg, w, inst, rec, setupS, nil)
		return result{
			Correct:   rec.mismatches == 0 && rec.lost == 0,
			Attempted: rec.attempted,
			Failed:    rec.failed,
			Metrics:   endToEnd(rec, setupS),
		}, nil
	}
	// The traced run measures half its time untraced first, so the tracing
	// overhead is a difference between two phases on one instance.
	plain := measure(inst, d/2, nil)
	tr := newTracer()
	rec := measure(inst, d/2, tr)
	inst.finish(rec)
	lt, err := analyzeSpans(tr.spans)
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	report(cfg, w, inst, rec, setupS, map[string]any{"spans": path, "spans_recorded": len(tr.spans),
		"self_sum_eps": selfEps, "self_sum_err": lt.maxSelfErr})
	return result{
		Correct:   plain.mismatches == 0 && rec.mismatches == 0 && rec.lost == 0 && lt.maxSelfErr <= selfEps,
		Attempted: plain.attempted + rec.attempted,
		Failed:    plain.failed + rec.failed,
		Metrics:   perLayer(plain, rec, lt),
	}, nil
}

// measure drives inst for d and records the phase. Queries are not bound
// to d: the clients finish what they started, and the phase lasts until
// the last one does.
func measure(inst instance, d time.Duration, tr *tracer) *recorder {
	rec := newRecorder(tr)
	runtime.GC()
	rec.before = snapshot(inst.db(), inst.server())
	heap := startHeapSampler()
	stop := make(chan struct{})
	timer := time.AfterFunc(d, func() { close(stop) })
	defer timer.Stop()
	start := time.Now()
	inst.load(stop, rec)
	rec.elapsed = time.Since(start)
	rec.heapPeak = heap.finish()
	rec.after = snapshot(inst.db(), inst.server())
	return rec
}

// report prints, ahead of the result line, what a reader needs to compare
// runs: machine, seed, sizes, policies, sample counts and the first error.
func report(cfg config, w workload, inst instance, rec *recorder, setupS float64, extra map[string]any) {
	ctx := map[string]any{
		"workload":        cfg.workload,
		"why":             w.why,
		"seed":            cfg.seed,
		"seconds":         cfg.seconds,
		"trace":           cfg.trace,
		"nproc":           cfg.nproc,
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"setup_reps":      setupReps,
		"setup_s":         setupS,
		"reads":           len(rec.reads),
		"read_tail_pct":   tailPercentile(len(rec.reads)),
		"commits":         len(rec.commits),
		"commit_tail_pct": tailPercentile(len(rec.commits)),
		"elapsed_s":       rec.elapsed.Seconds(),
		"mismatches":      rec.mismatches,
		"lost_writes":     rec.lost,
		"first_error":     rec.firstErr,
	}
	for k, v := range inst.describe() {
		ctx[k] = v
	}
	for k, v := range extra {
		ctx[k] = v
	}
	line, err := json.Marshal(map[string]any{"context": ctx})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: context:", err)
		return
	}
	fmt.Println(string(line))
}
