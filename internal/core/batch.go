package core

import (
	"context"
	"fmt"

	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workflow"
)

// Multi-query shared-scan batching: compatible workflows over one dataset
// run as a single job of the evaluation pipeline (pipeline.go), which
// scans the input once and evaluates every query against it, instead of
// one full scan per query (the batching trick of "Computing Marginals
// Using MapReduce", applied to composite measure workflows). A single
// query is simply a batch of one. Each query keeps its own plan — its own
// distribution key and clustering factor — because sharing happens below
// the plan, at two levels:
//
//   - The scan is always shared: the mapper decodes each record once for
//     the whole job.
//   - The shuffle is shared per geometry group. Queries whose plans agree
//     on block geometry (equal distribution key and clustering factor)
//     redistribute records identically, so one emitted pair serves all of
//     them, and the reducer builds the record group once and evaluates
//     every member against it. Queries with distinct geometries emit
//     separately, sharing only the scan.
//
// Tags keep the members apart only where there is something to tell
// apart: a shuffle key carries a uvarint geometry-group ordinal only when
// the job has more than one geometry group, and an output key carries a
// uvarint query ordinal only when the job has more than one member. A
// one-member job therefore shuffles and emits exactly the bytes of the
// query run alone. Every job's output goes through one row decoder and
// one canonical per-measure sort, so per-query results are byte-identical
// to sequential execution.
//
// Map-side early aggregation (the combiner keys on bare block keys and its
// payloads are per-workflow), Stage stops and per-block result-cache
// probes are one-member features: queries that need them — stage-stopped
// runs and runs the engine would execute with early aggregation — run as
// their own one-member jobs within the same batch call; the rest share one
// job.

// BatchJobInfo describes one job a batch ran.
type BatchJobInfo struct {
	// Queries are indices into the batch's workflow slice, in input order.
	Queries []int
	// Shared reports whether the job's single input scan served more than
	// one query.
	Shared bool
	// Groups partitions a shared job's Queries by block geometry: queries
	// in one group also shared the shuffle and the reducer-side group
	// builds, not just the scan. Nil for unshared jobs.
	Groups [][]int
	// Stats are the job's substrate counters (shared by every query in
	// the job; see SharedScanQueries per map task).
	Stats mr.JobStats
	// Estimate is the job's simulated response time, sampling passes
	// included.
	Estimate costmodel.Estimate
}

// BatchResult is a completed batch evaluation.
type BatchResult struct {
	// Results holds one Result per input workflow, in input order.
	// Queries that ran in a shared job carry the shared job's Stats and
	// Estimate (the scan cost is joint — it cannot be attributed to one
	// of them).
	Results []*Result
	// Jobs lists the jobs the batch ran: at most one shared job plus one
	// sequential job per unshareable query.
	Jobs []BatchJobInfo
}

// SharedScanQueries returns how many queries the batch served from shared
// scans (0 when every query ran alone).
func (b *BatchResult) SharedScanQueries() int {
	n := 0
	for _, j := range b.Jobs {
		if j.Shared {
			n += len(j.Queries)
		}
	}
	return n
}

// EvaluateBatch evaluates the workflows over the dataset under
// context.Background(); see EvaluateBatchContext.
func (e *Engine) EvaluateBatch(ws []*workflow.Workflow, ds *Dataset) (*BatchResult, error) {
	return e.EvaluateBatchContext(context.Background(), ws, ds)
}

// EvaluateBatchContext plans every workflow (the decision cache, when
// configured, deduplicates planning across structurally identical queries),
// runs the shareable ones as one shared-scan job and the rest as one job
// each, and returns per-query results byte-identical to what len(ws)
// separate EvaluateContext calls would produce. Cancelling ctx tears down
// whichever job is in flight.
func (e *Engine) EvaluateBatchContext(ctx context.Context, ws []*workflow.Workflow, ds *Dataset) (*BatchResult, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	// Count the dataset once for the whole batch instead of once per
	// query (a local copy so the caller's Dataset is left alone).
	d := *ds
	var err error
	if d.NumRecords, err = cardinality(ds); err != nil {
		return nil, err
	}

	out := &BatchResult{Results: make([]*Result, len(ws))}
	var shared, alone []*member
	for i, w := range ws {
		m, err := newMember(i, w, PlanOutcome{})
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		if early, _ := e.earlyAgg(m.ev); e.cfg.Stage == StageFull && !early {
			shared = append(shared, m)
		} else {
			alone = append(alone, m)
		}
	}
	// run plans the members in order (so the decision cache deduplicates
	// planning across them) and evaluates them as one job.
	run := func(ms []*member) error {
		for _, m := range ms {
			outcome, err := e.PlanContext(ctx, m.w, &d)
			if err != nil {
				return fmt.Errorf("core: batch query %d: %w", m.idx, err)
			}
			m.outcome = outcome
		}
		results, j, err := e.materialize(ctx, &d, ms)
		if err != nil {
			if len(ms) == 1 {
				err = fmt.Errorf("core: batch query %d: %w", ms[0].idx, err)
			}
			return err
		}
		// Sharing accounting: every map task's one scan served all n
		// queries, so n-1 rescans of its input bytes never happened.
		js, n := results[0].Stats, int64(len(ms))
		for t := range js.MapTasks {
			js.MapTasks[t].SharedScanQueries = n
			js.MapTasks[t].SharedScanBytesSaved = (n - 1) * js.MapTasks[t].BytesRead
		}
		info := BatchJobInfo{Shared: n > 1, Stats: js, Estimate: results[0].Estimate}
		for k, m := range ms {
			out.Results[m.idx] = results[k]
			info.Queries = append(info.Queries, m.idx)
		}
		if info.Shared {
			for _, g := range j.groups {
				ids := make([]int, len(g.members))
				for k, mi := range g.members {
					ids[k] = ms[mi].idx
				}
				info.Groups = append(info.Groups, ids)
			}
		}
		out.Jobs = append(out.Jobs, info)
		return nil
	}
	if len(shared) > 0 {
		if err := run(shared); err != nil {
			return nil, err
		}
	}
	for _, m := range alone {
		if err := run([]*member{m}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
