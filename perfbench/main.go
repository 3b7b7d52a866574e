// Command perfbench is the repository's wall-clock benchmark. It
// generates one workload from a seed, ingests it into the block store,
// times the workload for a fixed window, checks every answer against the
// component-at-a-time reference, and prints its metrics as one JSON
// object on the last line of standard output:
//
//	perfbench --workload batch_fine --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the window twice, untraced then traced, and reports per-layer
// metrics measured by timing calls into each module from outside. The
// spans of a traced run are written under --workdir. See README.md for
// the workloads, the metric definitions and the movements each layer
// metric predicts. The exit status is non-zero on any wrong answer.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// runLimit bounds a whole run, set-up and checks included.
const runLimit = 170 * time.Second

// setup_s is the median of the set-ups timed before the window and after
// it, so it samples the host's speed at two moments of the run. Each
// half sets up at least setupMin times and until setupSpan has passed,
// so a cheap set-up is sampled many times.
const (
	setupMin  = 8
	setupSpan = time.Second
)

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run, as a user sees them.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"records_per_s", "records/s"},
	{"qps", "1/s"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, one or more per module.
var perLayer = []metricDef{
	{"core.assemble_ms", "ms"},
	{"core.alloc_mb_per_query", "MB"},
	{"core.unattributed_ms", "ms"},
	{"localeval.eval_ms", "ms"},
	{"localeval.evaluate_block_ms", "ms"},
	{"localeval.window_lookups", "count"},
	{"distkey.keygen_ms", "ms"},
	{"distkey.pairs_per_record", "pairs/record"},
	{"mr.map_ms", "ms"},
	{"mr.shuffle_group_ms", "ms"},
	{"mr.group_sort_ms", "ms"},
	{"mr.shuffled_mb", "MB"},
	{"mr.spill_mb", "MB"},
	{"mr.reduce_skew", "ratio"},
	{"mr.combine_merge_ratio", "ratio"},
	{"blockstore.scan_ms", "ms"},
	{"blockstore.scan_mb_s", "MB/s"},
	{"blockstore.ingest_mb_s", "MB/s"},
	{"blockstore.cache_hit_ratio", "ratio"},
	{"blockstore.manifest_hit_ratio", "ratio"},
	{"blockstore.cache_evictions", "count"},
	{"blockstore.bytes_read_per_query", "bytes"},
	{"optimizer.plan_ms", "ms"},
	{"optimizer.decision_hit_ratio", "ratio"},
	{"exec.queue_ms", "ms"},
	{"cql.parse_us", "us"},
	{"serve.encode_ms", "ms"},
	{"serve.first_p50_ms", "ms"},
	{"serve.repeat_p50_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"gen_lag_ms", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: batch_fine | batch_window | serve_mix")
	seed := fs.Int64("seed", 1, "seed of the generated records and request schedule")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/perfbench-work", "scratch directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs()[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds > 0, --trace 0|1\n", workloadNames)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	o := runOpts{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1,
		work:   filepath.Join(*workdir, fmt.Sprintf("%s-%d", sp.Name, os.Getpid())),
		spans:  filepath.Join(*workdir, "spans", fmt.Sprintf("%s-seed%d.json", sp.Name, *seed)),
	}
	defer os.RemoveAll(o.work)
	rep, err := sp.execute(ctx, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.Name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

type runOpts struct {
	seed   int64
	window time.Duration
	traced bool
	work   string // removed when the run ends
	spans  string // span file of a traced run
}

// workloadEnv is a set-up workload ready to time.
type workloadEnv interface {
	// run times one window and returns its samples.
	run(ctx context.Context, tr *tracer, qid *int) (*pass, error)
	dataset() *dataset
	close(ctx context.Context) error
}

// setup builds one environment in a fresh store directory.
func (sp *spec) setup(ctx context.Context, o runOpts, window time.Duration) (workloadEnv, error) {
	dir := filepath.Join(o.work, "store")
	tmp := filepath.Join(o.work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	if sp.Serve {
		e, err := sp.setupServe(ctx, o.seed, dir, tmp)
		if err != nil {
			return nil, err
		}
		e.arrivals = sp.schedule(o.seed, window)
		return e, nil
	}
	e, err := sp.setupBatch(o.seed, dir, tmp)
	if err != nil {
		return nil, err
	}
	e.window = window
	return e, nil
}

// setupTimed sets up at least setupMin times and for at least setupSpan,
// each time from scratch after a garbage collection, and keeps the last
// environment. It returns every set-up time and the median ingest rate.
func (sp *spec) setupTimed(ctx context.Context, o runOpts, window time.Duration) (workloadEnv, []float64, float64, error) {
	var times, ingest []float64
	var env workloadEnv
	for start := time.Now(); len(times) < setupMin || time.Since(start) < setupSpan; {
		if env != nil {
			if err := env.close(ctx); err != nil {
				return nil, nil, 0, err
			}
			os.RemoveAll(filepath.Join(o.work, "store"))
		}
		runtime.GC()
		t0 := time.Now()
		e, err := sp.setup(ctx, o, window)
		if err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		d := e.dataset()
		ingest = append(ingest, div(d.rawMB, d.ingest.Seconds()))
		env = e
	}
	return env, times, median(ingest), nil
}

// execute runs the workload and checks its answers.
func (sp *spec) execute(ctx context.Context, o runOpts, out io.Writer) (*report, error) {
	window := o.window
	if o.traced {
		window /= 2
	}
	env, setups, ingestMBs, err := sp.setupTimed(ctx, o, window)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if env != nil {
			env.close(ctx)
		}
	}()
	chk := newChecker(sp, o)
	qid := 0
	p, err := env.run(ctx, nil, &qid)
	if err != nil {
		return nil, err
	}
	if err := chk.check(ctx, env.dataset(), p); err != nil {
		return nil, err
	}
	rep := &report{}
	if !o.traced {
		err := env.close(ctx)
		env = nil
		if err != nil {
			return nil, err
		}
		var more []float64
		if env, more, _, err = sp.setupTimed(ctx, o, window); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, more...)
		fmt.Fprintf(out, "setup_s is the median of %d set-ups, %.4f s to %.4f s\n",
			len(setups), slices.Min(setups), slices.Max(setups))
		m, notes := sp.endToEnd(p, median(setups))
		rep.Metrics = m
		for _, n := range notes {
			fmt.Fprintln(out, n)
		}
	} else {
		// A fresh environment for the traced window, so both windows
		// start from the same cache state.
		err := env.close(ctx)
		env = nil
		if err != nil {
			return nil, err
		}
		if env, err = sp.setup(ctx, o, window); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		tr := &tracer{}
		pt, err := env.run(ctx, tr, &qid)
		if err != nil {
			return nil, err
		}
		if err := chk.check(ctx, env.dataset(), pt); err != nil {
			return nil, err
		}
		m, err := sp.layers(ctx, o, env, p, pt, tr, &qid, ingestMBs, out)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		rep.Metrics = m
		lat := func(s sample) float64 { return ms(s.Latency) }
		fmt.Fprintf(out, "tracing overhead: latency_p50_ms %.3f untraced, %.3f traced\n",
			sp.central(p.completed(), lat), sp.central(pt.completed(), lat))
		spans := tr.snapshot()
		self := layerSelf(spans)
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "self time %-28s %10.3f ms\n", n, self[n])
		}
		if err := writeSpans(o.spans, sp.Name, o.seed, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), o.spans)
	}
	rep.Attempted, rep.Failed = chk.attempted, chk.failed
	rep.Correct = chk.failed == 0 && len(chk.problems) == 0
	for _, pr := range chk.problems {
		fmt.Fprintf(out, "WRONG: %s\n", pr)
	}
	fmt.Fprintf(out, "%s seed %d: attempted %d, failed %d, fail_ratio %g\n",
		sp.Name, o.seed, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	return rep, nil
}

// endToEnd computes the untraced metrics of a window.
func (sp *spec) endToEnd(p *pass, setupS float64) (map[string]metric, []string) {
	c := p.completed()
	t := tailOf(latencies(c))
	vals := map[string]float64{
		"latency_p50_ms":  sp.central(c, func(s sample) float64 { return ms(s.Latency) }),
		"latency_tail_ms": t.Value,
		"peak_heap_mb":    p.PeakHeapMB,
		"setup_s":         setupS,
	}
	if sp.Serve {
		// The request rate is over the whole window of the open loop.
		// The record rate is input read from the store per second the
		// server spent evaluating (its wall_ms stamps): answers served
		// from the result cache read nothing and take little time, so
		// this is the cold requests' scan-and-evaluate speed, whatever
		// their share of the window.
		evalS := serverSeconds(c)
		vals["records_per_s"] = div(p.Scanned, evalS)
		vals["qps"] = div(float64(len(c)), p.Window.Seconds())
	} else {
		// A closed loop is busy exactly while a query runs: the rates
		// are per pass over the query list, over the time its queries
		// took, and the median pass is reported.
		var recRate, qRate []float64
		for _, cy := range cycles(c, len(sp.Queries)) {
			var busy time.Duration
			var records int64
			for _, s := range cy {
				busy += s.Latency
				records += s.Records
			}
			recRate = append(recRate, div(float64(records), busy.Seconds()))
			qRate = append(qRate, div(float64(len(cy)), busy.Seconds()))
		}
		vals["records_per_s"] = median(recRate)
		vals["qps"] = median(qRate)
	}
	notes := []string{
		fmt.Sprintf("latency_tail_ms is p%.1f of %d samples (%d beyond it)", t.Percentile, t.Samples, tailBeyond),
		fmt.Sprintf("window %.2fs, %d of %d completed", p.Window.Seconds(), len(c), len(p.Samples)),
	}
	if sp.Serve {
		notes = append(notes, fmt.Sprintf("input records read from the store: %.0f over %d requests, in %.3f s of server wall",
			p.Scanned, len(c), serverSeconds(c)))
	}
	byQuery := map[int][]float64{}
	for _, s := range c {
		byQuery[s.Query] = append(byQuery[s.Query], ms(s.Latency))
	}
	for qi, q := range sp.Queries {
		if xs := byQuery[qi]; len(xs) > 0 {
			notes = append(notes, fmt.Sprintf("  %-22s n=%-4d median %9.2f ms", q.Name, len(xs), median(xs)))
		}
	}
	return withUnits(endToEnd, vals), notes
}

// serverSeconds sums the evaluation wall the server reported.
func serverSeconds(c []sample) float64 {
	var s float64
	for _, x := range c {
		s += x.WallMS / 1e3
	}
	return s
}

// cycles splits a batch window's completed samples into whole passes
// over the query list; a pass with a failed query is dropped.
func cycles(c []sample, n int) [][]sample {
	var out [][]sample
	var cur []sample
	for _, s := range c {
		if s.Query == 0 {
			cur = nil
		}
		cur = append(cur, s)
		if len(cur) == n && s.Query == n-1 {
			out = append(out, cur)
		}
	}
	return out
}

// central is the median of f over the samples. The batch list times
// every query equally often, so a plain median falls between two
// queries' groups and jumps on one outlier; for batch it is the median
// of the per-query medians instead.
func (sp *spec) central(ss []sample, f func(sample) float64) float64 {
	if sp.Serve {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		return median(xs)
	}
	byQuery := map[int][]float64{}
	for _, s := range ss {
		byQuery[s.Query] = append(byQuery[s.Query], f(s))
	}
	var meds []float64
	for _, xs := range byQuery {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
