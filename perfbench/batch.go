package main

import (
	"context"
	"fmt"
	"time"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/mr"
)

// sample is one timed query or request.
type sample struct {
	Query   int           // index into the workload's query list or family
	First   bool          // the benchmark had not sent this text before
	Latency time.Duration // batch: CQL text to Result; serve: due time to last byte
	Lag     time.Duration // how late the caller or generator issued it
	Records int64         // batch: input records the query's job evaluated
	Err     error

	Stats   *mr.JobStats  // batch, traced runs only: the job's stamps and counters
	QueueMS float64       // serve: admission wait the server reported
	WallMS  float64       // serve: evaluation wall the server reported
	ConnLat time.Duration // serve: from holding a connection to the last byte
}

// pass is the outcome of one timed window.
type pass struct {
	Samples    []sample
	Window     time.Duration // first issue to last completion
	PeakHeapMB float64
	AllocBytes uint64
	BytesRead  int64   // block-store bytes read during the window
	Scanned    float64 // input records read from the store during the window
	Spans      []span

	// Correctness material, checked after the window.
	digests map[int][][32]byte // per query, one digest per answer
	keep    map[int]any        // per query, the first answer (*core.Result or response body)

	// Serve only: result-cache and decision-cache deltas.
	cache    cacheDelta
	requests int
}

func (p *pass) completed() []sample {
	var out []sample
	for _, s := range p.Samples {
		if s.Err == nil {
			out = append(out, s)
		}
	}
	return out
}

// batchEnv is a set-up batch workload: its store-backed dataset and an
// engine under the workload's knobs, with no decision or result cache.
type batchEnv struct {
	sp     *spec
	data   *dataset
	eng    *core.Engine
	window time.Duration
}

func (sp *spec) setupBatch(seed int64, dir, tmp string) (*batchEnv, error) {
	data, err := sp.ingestStore(seed, dir)
	if err != nil {
		return nil, err
	}
	cfg := sp.Engine
	cfg.TempDir = tmp
	eng, err := core.NewEngine(cfg)
	if err != nil {
		data.st.Close()
		return nil, err
	}
	return &batchEnv{sp: sp, data: data, eng: eng}, nil
}

func (e *batchEnv) run(ctx context.Context, tr *tracer, qid *int) (*pass, error) {
	return e.pass(ctx, e.window, tr, qid)
}

func (e *batchEnv) dataset() *dataset { return e.data }

func (e *batchEnv) close(context.Context) error { return e.data.st.Close() }

// evaluate runs one query from CQL text to the materialized Result. It
// calls the layers EvaluateContext is made of (PlanContext, then
// RunWithPlanContext) one by one and records a span around each; a nil
// tracer records nothing, so traced and untraced runs make the same calls.
func (e *batchEnv) evaluate(ctx context.Context, text string, tr *tracer, qid int) (*core.Result, error) {
	root := tr.open(qid, -1, "query")
	defer tr.close(root)
	id := tr.open(qid, root, "cql.parse")
	w, err := cql.Parse(e.data.ds.Schema, text)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	id = tr.open(qid, root, "optimizer.plan")
	outcome, err := e.eng.PlanContext(ctx, w, e.data.ds)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	runStart := time.Now()
	res, err := e.eng.RunWithPlanContext(ctx, w, e.data.ds, outcome)
	runEnd := time.Now()
	run := tr.record(qid, root, "core.run", runStart, runEnd)
	if err != nil {
		return nil, err
	}
	// The job's own wall stamp; what remains of core.run is output
	// assembly and the canonical sort.
	tr.record(qid, run, "mr.job", runStart, runStart.Add(res.Stats.Wall))
	return res, nil
}

// pass runs the query list in order, over and over, until the window has
// elapsed, always finishing the cycle in progress so every query is
// timed equally often. Each answer's digest is taken after its latency
// is stamped; the first answer of each query is kept for the reference
// check after the window.
func (e *batchEnv) pass(ctx context.Context, window time.Duration, tr *tracer, qid *int) (*pass, error) {
	p := &pass{digests: map[int][][32]byte{}, keep: map[int]any{}}
	heap := startHeapSampler(5 * time.Millisecond)
	alloc0 := allocatedBytes()
	read0 := e.data.st.Stats()
	start := time.Now()
	deadline := start.Add(window)
	prevEnd := start
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		for qi, q := range e.sp.Queries {
			if err := ctx.Err(); err != nil {
				heap.Stop()
				return nil, err
			}
			t0 := time.Now()
			res, err := e.evaluate(ctx, q.Text, tr, *qid)
			t1 := time.Now()
			*qid++
			s := sample{Query: qi, First: cycle == 0, Latency: t1.Sub(t0), Lag: t0.Sub(prevEnd), Err: err}
			prevEnd = t1
			if err != nil {
				s.Err = fmt.Errorf("%s: %w", q.Name, err)
				p.Samples = append(p.Samples, s)
				continue
			}
			for _, t := range res.Stats.MapTasks {
				s.Records += t.Records
			}
			if tr != nil {
				st := res.Stats
				s.Stats = &st
			}
			p.Samples = append(p.Samples, s)
			p.digests[qi] = append(p.digests[qi], digest(res))
			if _, ok := p.keep[qi]; !ok {
				p.keep[qi] = res
			}
		}
	}
	p.Window = time.Since(start)
	p.PeakHeapMB = heap.Stop()
	p.AllocBytes = allocatedBytes() - alloc0
	read1 := e.data.st.Stats()
	p.BytesRead = read1.BytesRead - read0.BytesRead
	p.Scanned = e.data.scanned(read1.BlockReads - read0.BlockReads)
	p.Spans = tr.snapshot()
	return p, nil
}
