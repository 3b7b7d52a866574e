package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/serve"
)

// ladder is the Figure 4(d) stage order: each stage runs the previous
// one's work plus one more layer.
var ladder = []struct {
	stage core.Stage
	span  string
}{
	{core.StageMapOnly, "mr.stage_maponly"},
	{core.StageShuffle, "mr.stage_shuffle"},
	{core.StageSort, "mr.stage_sort"},
	{core.StageFull, "mr.stage_full"},
}

// probe is one query's layers, each timed by calling the layer's entry
// point directly on the workload's data under the query's own plan.
type probe struct {
	Stage    [4]time.Duration // job wall per ladder stage, early aggregation off (median over repeats)
	Assemble time.Duration    // RunWithPlanContext wall minus its job wall, under the workload's knobs
	Full     mr.JobStats      // that run's job
	Keygen   time.Duration    // distkey.Session.Blocks over every record
	Pairs    int64            // block keys those calls returned
	Blocks   int              // distinct blocks among them
	Eval     time.Duration    // localeval.Session.EvaluateBlock over every block
	Lookups  int64            // window probes of those evaluations
}

// probeQuery measures one query. cfg carries the workload's knobs with
// no caches, so every stage does its full work.
func probeQuery(ctx context.Context, cfg core.Config, data *dataset, q query, reps int, tr *tracer, qid int) (*probe, error) {
	root := tr.open(qid, -1, "probe")
	defer tr.close(root)
	w, err := cql.Parse(data.ds.Schema, q.Text)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	id := tr.open(qid, root, "optimizer.plan")
	outcome, err := eng.PlanContext(ctx, w, data.ds)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	p := &probe{}
	// The ladder runs without early aggregation, as Figure 4(d) does:
	// StageSort cannot decode the combiner's partial states.
	for i, l := range ladder {
		c := cfg
		c.Stage = l.stage
		c.EarlyAggregation = core.EarlyAggOff
		se, err := core.NewEngine(c)
		if err != nil {
			return nil, err
		}
		walls := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			res, err := se.RunWithPlanContext(ctx, w, data.ds, outcome)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("%s at stage %d: %w", q.Name, l.stage, err)
			}
			run := tr.record(qid, root, l.span, t0, t1)
			tr.record(qid, run, "mr.job", t0, t0.Add(res.Stats.Wall))
			walls = append(walls, float64(res.Stats.Wall))
		}
		p.Stage[i] = time.Duration(median(walls))
	}
	// One run under the workload's own knobs, for its job counters and
	// its output assembly.
	t0 := time.Now()
	res, err := eng.RunWithPlanContext(ctx, w, data.ds, outcome)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.Name, err)
	}
	run := tr.record(qid, root, "core.run", t0, t1)
	tr.record(qid, run, "mr.job", t0, t0.Add(res.Stats.Wall))
	p.Full = res.Stats
	p.Assemble = t1.Sub(t0) - res.Stats.Wall

	bm, err := distkey.NewBlockMapper(data.ds.Schema, outcome.Plan.Key, outcome.Plan.ClusteringFactor)
	if err != nil {
		return nil, err
	}
	ss := bm.NewSession()
	t0 = time.Now()
	for _, rec := range data.records {
		p.Pairs += int64(len(ss.Blocks(rec)))
	}
	p.Keygen = time.Since(t0)
	tr.record(qid, root, "distkey.blocks", t0, t0.Add(p.Keygen))

	// Group the records into the plan's blocks (untimed), then evaluate
	// every block with one session, as a reduce task does.
	groups := make(map[string][]int32)
	gs := bm.NewSession()
	for i, rec := range data.records {
		for _, k := range gs.Blocks(rec) {
			groups[string(k)] = append(groups[string(k)], int32(i))
		}
	}
	p.Blocks = len(groups)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ev, err := localeval.New(w)
	if err != nil {
		return nil, err
	}
	es := ev.NewSession()
	t0 = time.Now()
	for _, k := range keys {
		for _, i := range groups[k] {
			es.AppendRecord(data.records[i])
		}
		_, st, err := es.EvaluateBlock(localeval.Options{})
		if err != nil {
			return nil, err
		}
		p.Lookups += st.WindowLookups
	}
	p.Eval = time.Since(t0)
	tr.record(qid, root, "localeval.evaluate_block", t0, t0.Add(p.Eval))
	return p, nil
}

// scanProbe opens every store split of the dataset and decodes every
// record, as map tasks do, returning the wall and the split bytes read.
func scanProbe(data *dataset, tr *tracer, qid int) (time.Duration, int64, error) {
	splits, err := data.ds.Input.Splits()
	if err != nil {
		return 0, 0, err
	}
	rec := make(cube.Record, data.ds.Schema.NumAttrs())
	var bytes int64
	t0 := time.Now()
	for _, sp := range splits {
		it, err := sp.Open()
		if err != nil {
			return 0, 0, err
		}
		for {
			b, ok, err := it.Next()
			if err != nil {
				it.Close()
				return 0, 0, err
			}
			if !ok {
				break
			}
			if err := recio.DecodeRecordInto(b, rec); err != nil {
				it.Close()
				return 0, 0, err
			}
		}
		if err := it.Close(); err != nil {
			return 0, 0, err
		}
		bytes += sp.SizeBytes()
	}
	d := time.Since(t0)
	tr.record(qid, -1, "blockstore.scan", t0, t0.Add(d))
	return d, bytes, nil
}

// serviceProbe sends each query once through a core.Service (for its
// admission stamp) and once through the serve handler (for its encode
// cost) on the batch workload's own data. The service has no result
// cache and its decision cache is private to the probe.
func serviceProbe(ctx context.Context, cfg core.Config, data *dataset, queries []query, tr *tracer, qid int) (queueMS, encodeMS float64, err error) {
	svc, err := core.NewService(core.ServiceConfig{Engine: cfg})
	if err != nil {
		return 0, 0, err
	}
	defer svc.Drain(ctx)
	if err := svc.RegisterStore(dataFile, data.ds.Schema, data.st, dataFile); err != nil {
		return 0, 0, err
	}
	h := serve.New(svc)
	var queue, encode []float64
	for _, q := range queries {
		w, err := cql.Parse(data.ds.Schema, q.Text)
		if err != nil {
			return 0, 0, err
		}
		_, tm, err := svc.Evaluate(ctx, "probe", dataFile, w)
		if err != nil {
			return 0, 0, err
		}
		queue = append(queue, ms(tm.Queue))
		req := httptest.NewRequest(http.MethodPost, "/query?dataset="+dataFile, strings.NewReader(q.Text))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("%s: status %d", q.Name, rec.Code)
		}
		var rep reply
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			return 0, 0, err
		}
		root := tr.record(qid, -1, "serve.handler", t0, t0.Add(d))
		tr.record(qid, root, "exec.admission", t0, t0.Add(time.Duration(rep.QueueMS*float64(time.Millisecond))))
		encode = append(encode, ms(d)-rep.WallMS-rep.QueueMS)
	}
	return mean(queue), mean(encode), nil
}
