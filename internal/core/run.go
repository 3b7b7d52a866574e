package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/measure"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/stats"
	"github.com/casm-project/casm/internal/workflow"
)

// PlanOutcome carries the plan chosen for a run and how it was found.
type PlanOutcome struct {
	Plan          optimizer.Plan
	Sampled       bool
	FromCache     bool
	SampleSeconds float64
	// DecisionCached indicates the complete decision (not just a key/cf
	// hint) came from Config.DecisionCache; no planning work ran at all.
	DecisionCached bool
}

// Plan chooses the execution plan under context.Background(); see
// PlanContext.
func (e *Engine) Plan(w *workflow.Workflow, ds *Dataset) (PlanOutcome, error) {
	return e.PlanContext(context.Background(), w, ds)
}

// PlanContext chooses the execution plan for the workflow over the
// dataset, applying the plan cache, the cost-model optimizer, forced
// overrides, and (optionally) sampling-based skew handling, in that
// order. Planning runs inline on the caller's goroutine; ctx bounds the
// dataset scans (cardinality counting, skew sampling) it may perform.
func (e *Engine) PlanContext(ctx context.Context, w *workflow.Workflow, ds *Dataset) (PlanOutcome, error) {
	if err := ctx.Err(); err != nil {
		return PlanOutcome{}, err
	}
	n, err := cardinality(ds)
	if err != nil {
		return PlanOutcome{}, err
	}
	optCfg := optimizer.Config{
		NumReducers:         e.cfg.NumReducers,
		TotalRecords:        n,
		MinBlocksPerReducer: e.cfg.MinBlocksPerReducer,
	}

	// The decision cache short-circuits everything below it: a hit hands
	// back the complete prior decision (including a sampling-based one)
	// keyed by the canonical workflow fingerprint, the dataset identity,
	// and every knob that can change the outcome. Forced overrides bypass
	// it — they are the caller insisting the optimizer's decision not be
	// used, cached or otherwise.
	decide := e.cfg.DecisionCache != nil && e.cfg.ForceKey == nil && e.cfg.ForceCF == 0
	var decisionKey string
	if decide {
		fp, err := workflow.Fingerprint(w)
		if err != nil {
			return PlanOutcome{}, err
		}
		decisionKey = optimizer.DecisionKey(fp, ds.Tag, n, optCfg,
			int(e.cfg.SkewMode), e.cfg.SampleSize, e.cfg.Seed)
		if plan, sampled, ok := e.cfg.DecisionCache.Get(decisionKey); ok {
			return PlanOutcome{Plan: plan, Sampled: sampled, FromCache: true, DecisionCached: true}, nil
		}
	}

	if e.cfg.Cache != nil && e.cfg.ForceKey == nil {
		minimal, _, err := distkey.Derive(w)
		if err != nil {
			return PlanOutcome{}, err
		}
		if key, cf, ok := e.cfg.Cache.Lookup(ds.Schema, minimal); ok {
			cand, err := optimizer.ScoreKey(ds.Schema, key, optCfg)
			if err != nil {
				return PlanOutcome{}, err
			}
			return PlanOutcome{
				Plan: optimizer.Plan{
					Key: key, ClusteringFactor: cf,
					PredictedWorkload: cand.Workload, Blocks: cand.Blocks,
					Candidates: []optimizer.Candidate{cand},
				},
				FromCache: true,
			}, nil
		}
	}

	plan, err := optimizer.Optimize(w, optCfg)
	if err != nil {
		return PlanOutcome{}, err
	}

	if e.cfg.ForceKey != nil {
		cand, err := optimizer.ScoreKey(ds.Schema, *e.cfg.ForceKey, optCfg)
		if err != nil {
			return PlanOutcome{}, err
		}
		plan = optimizer.Plan{
			Key: *e.cfg.ForceKey, ClusteringFactor: cand.ClusteringFactor,
			PredictedWorkload: cand.Workload, Blocks: cand.Blocks,
			Candidates: []optimizer.Candidate{cand},
		}
	}
	if e.cfg.ForceCF > 0 {
		if !plan.Key.IsOverlapping() && e.cfg.ForceCF != 1 {
			return PlanOutcome{}, fmt.Errorf("core: ForceCF %d needs an overlapping key", e.cfg.ForceCF)
		}
		plan.ClusteringFactor = e.cfg.ForceCF
		plan.PredictedWorkload = optimizer.PredictWorkload(ds.Schema, plan.Key, e.cfg.ForceCF, optCfg)
	}

	out := PlanOutcome{Plan: plan}
	if e.cfg.SkewMode == SkewSampling && e.cfg.ForceKey == nil && e.cfg.ForceCF == 0 {
		if err := ctx.Err(); err != nil {
			return PlanOutcome{}, err
		}
		sample, bytesRead, err := sampleDataset(ds, e.cfg.SampleSize, e.cfg.Seed)
		if err != nil {
			return PlanOutcome{}, err
		}
		choice, err := optimizer.ChooseBySampling(ds.Schema, plan, sample, e.cfg.NumReducers, nil)
		if err != nil {
			return PlanOutcome{}, err
		}
		out.Plan = choice.Plan
		out.Sampled = true
		m := e.cfg.Cluster.Machine
		out.SampleSeconds = float64(bytesRead)/(m.DiskMBps*(1<<20)) +
			float64(len(plan.Candidates)*len(sample))*m.MapSecPerRecord + 2*m.TaskOverheadSec
	}
	if e.cfg.Cache != nil {
		e.cfg.Cache.Store(out.Plan.Key, out.Plan.ClusteringFactor)
	}
	if decide {
		e.cfg.DecisionCache.Put(decisionKey, out.Plan, out.Sampled)
	}
	return out, nil
}

// cardinality returns the dataset's record count, counting with one scan
// when it is unknown; an empty dataset counts as one record.
func cardinality(ds *Dataset) (int64, error) {
	if ds.NumRecords != 0 {
		return ds.NumRecords, nil
	}
	n, err := CountRecords(ds)
	return max(n, 1), err
}

// sampleDataset reservoir-samples up to n records from a handful of
// evenly spaced splits, the way the paper's mappers sample the data they
// acquire before the simulated dispatch.
func sampleDataset(ds *Dataset, n int, seed int64) ([]cube.Record, int64, error) {
	splits, err := ds.Input.Splits()
	if err != nil {
		return nil, 0, err
	}
	res := stats.NewReservoir[cube.Record](n, seed)
	var bytesRead int64
	stride := len(splits) / 8
	if stride < 1 {
		stride = 1
	}
	arity := ds.Schema.NumAttrs()
	for i := 0; i < len(splits); i += stride {
		sp := splits[i]
		it, err := sp.Open()
		if err != nil {
			return nil, 0, err
		}
		bytesRead += sp.SizeBytes()
		for {
			raw, ok, err := it.Next()
			if err != nil {
				it.Close()
				return nil, 0, err
			}
			if !ok {
				break
			}
			rec, err := recio.DecodeRecord(raw, arity)
			if err != nil {
				it.Close()
				return nil, 0, err
			}
			res.Add(rec)
		}
		if err := it.Close(); err != nil {
			return nil, 0, err
		}
	}
	return res.Sample(), bytesRead, nil
}

// Run plans and executes the workflow over the dataset under
// context.Background(); it is the compatibility wrapper around
// EvaluateContext for callers without a cancellation story.
func (e *Engine) Run(w *workflow.Workflow, ds *Dataset) (*Result, error) {
	return e.EvaluateContext(context.Background(), w, ds)
}

// EvaluateContext plans and executes the workflow over the dataset. The
// job's map/reduce tasks run on Config.Executor's shared pool, so any
// number of concurrent EvaluateContext calls (on one engine or many
// sharing an executor) multiplex over one bounded set of workers.
// Cancelling ctx tears the in-flight job down — shuffle senders unblock,
// spill and merge loops abort, temporary state is released — and the
// call returns an error satisfying errors.Is(err, context.Canceled).
func (e *Engine) EvaluateContext(ctx context.Context, w *workflow.Workflow, ds *Dataset) (*Result, error) {
	outcome, err := e.PlanContext(ctx, w, ds)
	if err != nil {
		return nil, err
	}
	return e.RunWithPlanContext(ctx, w, ds, outcome)
}

// RunWithPlan executes the workflow under an explicit plan outcome and
// context.Background(); see RunWithPlanContext.
func (e *Engine) RunWithPlan(w *workflow.Workflow, ds *Dataset, outcome PlanOutcome) (*Result, error) {
	return e.RunWithPlanContext(context.Background(), w, ds, outcome)
}

// RunWithPlanContext executes the workflow under an explicit plan
// outcome; see EvaluateContext for the execution and cancellation
// contract. The query runs as a one-member job of the evaluation
// pipeline (see materialize).
func (e *Engine) RunWithPlanContext(ctx context.Context, w *workflow.Workflow, ds *Dataset, outcome PlanOutcome) (*Result, error) {
	m, err := newMember(0, w, outcome)
	if err != nil {
		return nil, err
	}
	results, _, err := e.materialize(ctx, ds, []*member{m})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// EstimateFromStats converts substrate counters into a simulated response
// time on the given cluster.
func EstimateFromStats(c costmodel.Cluster, js mr.JobStats) costmodel.Estimate {
	mw := make([]costmodel.MapWork, len(js.MapTasks))
	for i, t := range js.MapTasks {
		mw[i] = costmodel.MapWork{
			BytesRead:    t.BytesRead,
			Records:      t.Records,
			PairsOut:     t.PairsOut,
			BytesOut:     t.BytesOut,
			CombineItems: t.CombineInputs,

			MorselsDispatched: t.MorselsDispatched,
			MorselSteals:      t.MorselSteals,
			LocalAggHits:      t.LocalAggHits,
			LocalAggSpills:    t.LocalAggSpills,

			PlanCacheHits:        t.PlanCacheHits,
			SharedScanQueries:    t.SharedScanQueries,
			SharedScanBytesSaved: t.SharedScanBytesSaved,
		}
	}
	rw := make([]costmodel.ReduceWork, len(js.ReduceTasks))
	for i, t := range js.ReduceTasks {
		rw[i] = costmodel.ReduceWork{
			BytesIn:        t.BytesIn,
			PairsIn:        t.PairsIn,
			SortItems:      t.SortItems,
			SpillBytes:     t.SpillBytes,
			GroupSortItems: t.GroupSortItems,
			GroupSpill:     t.GroupSpillBytes,
			EvalRecords:    t.EvalRecords,
			OutputRecords:  t.OutputRecords,
			EvalArenaBytes: t.EvalArenaBytes,
			AggPoolHits:    t.AggPoolHits,
			WindowLookups:  t.WindowLookups,

			ResultCacheHits:   t.ResultCacheHits,
			ResultCacheMisses: t.ResultCacheMisses,
			ResultCacheBytes:  t.ResultCacheBytes,
		}
	}
	return costmodel.EstimateJob(c, mw, rw)
}

// --- payload codecs ---

// appendMeasureRecord appends a packed <region coordinates, value> record
// to dst and returns the extended slice.
func appendMeasureRecord(dst []byte, coords []int64, v float64) []byte {
	dst = cube.AppendCoords(dst, coords)
	var f [8]byte
	binary.LittleEndian.PutUint64(f[:], math.Float64bits(v))
	return append(dst, f[:]...)
}

// encodeMeasureRecord packs region coordinates and the value.
func encodeMeasureRecord(coords []int64, v float64) []byte {
	return appendMeasureRecord(make([]byte, 0, len(coords)*3+8), coords, v)
}

func decodeMeasureRecord(b []byte, arity int) ([]int64, float64, error) {
	coords := make([]int64, arity)
	v, err := decodeRow(b, coords)
	if err != nil {
		return nil, 0, err
	}
	return coords, v, nil
}

// blockPrefixLen returns the length of the block-key prefix (arity
// uvarints) of a combined shuffle key.
func blockPrefixLen(key []byte, arity int) int {
	off := 0
	for i := 0; i < arity; i++ {
		for off < len(key) && key[off] >= 0x80 {
			off++
		}
		off++ // terminating byte
	}
	if off > len(key) {
		off = len(key)
	}
	return off
}

// partialTag prefixes early-aggregation payloads.
const partialTag = 1

// earlyAggCombiner is the streaming early-aggregation combiner: each raw
// record emitted for a block is decoded once and folded straight into the
// per-(basic measure, region) aggregator state — no buffered value
// copies, no re-decoding at flush time. It implements mr.Combiner.
type earlyAggCombiner struct {
	s      *cube.Schema
	basics []*workflow.Measure
	arity  int
	st     *mr.TaskStats

	blocks map[string]*blockPartials
	groups int // total aggregator groups across blocks (= Len)

	// Reused per-Add decode/encode buffers.
	rec   cube.Record
	coord []int64
	enc   []byte
}

type blockPartials struct {
	perBasic []map[string]*partialGroup
}

type partialGroup struct {
	coords []int64
	agg    measure.Aggregator
}

func newEarlyAggCombiner(s *cube.Schema, basics []*workflow.Measure, st *mr.TaskStats) *earlyAggCombiner {
	arity := s.NumAttrs()
	return &earlyAggCombiner{
		s: s, basics: basics, arity: arity, st: st,
		blocks: make(map[string]*blockPartials),
		rec:    make(cube.Record, arity),
		coord:  make([]int64, arity),
	}
}

func (c *earlyAggCombiner) Add(blockKey, raw []byte) error {
	if err := recio.DecodeRecordInto(raw, c.rec); err != nil {
		return err
	}
	// Alloc-free probe; blockKey is only valid during Add, so the map-key
	// string materialized on first sight of a block is the mandatory copy.
	bp, ok := c.blocks[string(blockKey)]
	if !ok {
		bp = &blockPartials{perBasic: make([]map[string]*partialGroup, len(c.basics))}
		for i := range bp.perBasic {
			bp.perBasic[i] = make(map[string]*partialGroup)
		}
		c.blocks[string(blockKey)] = bp
	}
	for i, b := range c.basics {
		c.s.CoordOf(c.rec, b.Grain, c.coord)
		// Alloc-free lookup via the compiler's map[string][]byte-key
		// optimization; the key string is only materialized on first sight.
		c.enc = cube.AppendCoords(c.enc[:0], c.coord)
		g, ok := bp.perBasic[i][string(c.enc)]
		if !ok {
			g = &partialGroup{coords: append([]int64(nil), c.coord...), agg: b.Agg.New()}
			bp.perBasic[i][string(c.enc)] = g
			c.groups++
		} else {
			c.st.CombineMerges++
		}
		if b.InputAttr >= 0 {
			g.agg.Add(float64(c.rec[b.InputAttr]))
		} else {
			g.agg.Add(0)
		}
	}
	return nil
}

func (c *earlyAggCombiner) Len() int { return c.groups }

func (c *earlyAggCombiner) Flush(emit func(key, value []byte) error) error {
	// Deterministic flush: blocks in ascending key order, and within a
	// block the partials in (basic index, region coordinate) order.
	blockKeys := make([]string, 0, len(c.blocks))
	for k := range c.blocks {
		blockKeys = append(blockKeys, k)
	}
	sort.Strings(blockKeys)
	for _, bk := range blockKeys {
		bp := c.blocks[bk]
		// One key slice per block per flush, shared by all of the block's
		// emitted partials — the shuffle retains it but never mutates it.
		kb := []byte(bk)
		for i := range c.basics {
			regionKeys := make([]string, 0, len(bp.perBasic[i]))
			for rk := range bp.perBasic[i] {
				regionKeys = append(regionKeys, rk)
			}
			sort.Strings(regionKeys)
			for _, rk := range regionKeys {
				g := bp.perBasic[i][rk]
				// The emitted value is retained by the shuffle until the
				// job ends, so it gets its own allocation; the map key rk
				// already IS the encoded region coordinate.
				if err := emit(kb, appendPartial(nil, i, rk, g.agg.State())); err != nil {
					return err
				}
			}
		}
		delete(c.blocks, bk)
	}
	c.groups = 0
	return nil
}

// appendPartial appends a tagged partial-state payload to dst. ck is the
// EncodeCoords form of the region coordinates.
func appendPartial(dst []byte, basicIdx int, ck string, state []byte) []byte {
	dst = append(dst, partialTag)
	dst = binary.AppendUvarint(dst, uint64(basicIdx))
	dst = binary.AppendUvarint(dst, uint64(len(ck)))
	dst = append(dst, ck...)
	return append(dst, state...)
}

// splitPartial slices a partial payload into its parts without decoding
// the coordinates; ck and state alias b.
func splitPartial(b []byte) (int, []byte, []byte, error) {
	if len(b) < 2 || b[0] != partialTag {
		return 0, nil, nil, fmt.Errorf("core: not a partial payload")
	}
	b = b[1:]
	idx, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("core: corrupt partial index")
	}
	b = b[n:]
	ckLen, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b[n:])) < ckLen {
		return 0, nil, nil, fmt.Errorf("core: corrupt partial coords")
	}
	b = b[n:]
	return int(idx), b[:ckLen], b[ckLen:], nil
}

func decodePartial(b []byte, arity int) (int, []int64, []byte, error) {
	idx, ck, state, err := splitPartial(b)
	if err != nil {
		return 0, nil, nil, err
	}
	coords, err := cube.DecodeCoords(string(ck), arity)
	if err != nil {
		return 0, nil, nil, err
	}
	return idx, coords, state, nil
}

// collectPartials materializes and merges a group's partial aggregates.
func collectPartials(values *mr.GroupIter, basics []*workflow.Measure, arity int) (map[string][]localeval.BasicGroup, int64, error) {
	perBasic := make([]map[string]*partialGroup, len(basics))
	for i := range perBasic {
		perBasic[i] = make(map[string]*partialGroup)
	}
	var pairs int64
	for {
		p, ok, err := values.Next()
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			break
		}
		pairs++
		idx, ck, state, err := splitPartial(p.Value)
		if err != nil {
			return nil, 0, err
		}
		if idx < 0 || idx >= len(basics) {
			return nil, 0, fmt.Errorf("core: partial for unknown basic %d", idx)
		}
		// The payload's encoded coordinate bytes double as the map key
		// (alloc-free probe); coordinates are only decoded on first sight.
		g, okg := perBasic[idx][string(ck)]
		if !okg {
			coords, err := cube.DecodeCoords(string(ck), arity)
			if err != nil {
				return nil, 0, err
			}
			g = &partialGroup{coords: coords, agg: basics[idx].Agg.New()}
			perBasic[idx][string(ck)] = g
		}
		if err := g.agg.MergeState(state); err != nil {
			return nil, 0, err
		}
	}
	out := make(map[string][]localeval.BasicGroup, len(basics))
	for i, b := range basics {
		groups := make([]localeval.BasicGroup, 0, len(perBasic[i]))
		for _, g := range perBasic[i] {
			groups = append(groups, localeval.BasicGroup{Coords: g.coords, Agg: g.agg})
		}
		out[b.Name] = groups
	}
	return out, pairs, nil
}
