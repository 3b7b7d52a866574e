package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/casm-project/casm/internal/costmodel"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/distkey"
	"github.com/casm-project/casm/internal/localeval"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/recio"
	"github.com/casm-project/casm/internal/transport"
	"github.com/casm-project/casm/internal/workflow"
)

// member is one query of an evaluation job.
type member struct {
	idx     int // position in the caller's workflow slice
	w       *workflow.Workflow
	ev      *localeval.Evaluator
	outcome PlanOutcome
}

func newMember(idx int, w *workflow.Workflow, outcome PlanOutcome) (*member, error) {
	ev, err := localeval.New(w)
	if err != nil {
		return nil, err
	}
	return &member{idx: idx, w: w, ev: ev, outcome: outcome}, nil
}

// earlyAgg reports whether ev's job runs with map-side early aggregation;
// under EarlyAggOn it also returns why a workflow cannot.
func (e *Engine) earlyAgg(ev *localeval.Evaluator) (bool, error) {
	switch e.cfg.EarlyAggregation {
	case EarlyAggOn:
		return true, ev.SupportsEarlyAggregation()
	case EarlyAggAuto:
		return ev.SupportsEarlyAggregation() == nil, nil
	}
	return false, nil
}

// geometry is a set of a job's members whose plans agree on block
// geometry (distribution key and clustering factor). They redistribute
// records identically, so one emitted pair per (record, block) serves
// every one of them.
type geometry struct {
	bm      *distkey.BlockMapper
	tag     []byte // uvarint ordinal, the shuffle-key prefix; nil in a one-geometry job
	members []int  // positions in job.members
}

// job is a started evaluation job over one or more members. A one-member
// job's shuffle and output keys carry no tags, so its bytes are exactly
// those of the query run alone. Only a one-member job aggregates early or
// probes the result cache; EvaluateBatchContext also keeps stage-stopped
// queries out of multi-member jobs.
type job struct {
	e        *Engine
	pipe     *mr.Pipe
	members  []*member
	groups   []*geometry
	arity    int
	combined bool
	early    bool
	basics   []*workflow.Measure // the one member's basics, for early aggregation
	// reuse is the one member's result-reuse session (nil when reuse does
	// not apply). The job fills it per block; only a consumer that drains
	// the job to completion may commit its manifest.
	reuse *resultReuse

	// Output state (see next).
	routes map[string]route // output key → member measure
	cur    []transport.Pair
	i      int
}

// startJob builds the single mr job that evaluates every member over one
// scan of the dataset and starts it. The caller owns j.pipe and must Close
// it on every path.
func (e *Engine) startJob(ctx context.Context, ds *Dataset, members []*member) (*job, error) {
	s := ds.Schema
	j := &job{e: e, members: members, arity: s.NumAttrs(), routes: make(map[string]route)}
	if len(members) == 1 {
		m := members[0]
		early, err := e.earlyAgg(m.ev)
		if err != nil {
			return nil, err
		}
		j.early, j.basics = early, m.w.Basics()
		j.reuse = e.newResultReuse(m.w, ds, m.outcome.Plan)
	}
	j.combined = e.cfg.SortMode == CombinedKeySort && !j.early

	for mi, m := range members {
		p := m.outcome.Plan
		gi := slices.IndexFunc(j.groups, func(g *geometry) bool {
			q := members[g.members[0]].outcome.Plan
			return q.ClusteringFactor == p.ClusteringFactor && q.Key.Equal(p.Key)
		})
		if gi < 0 {
			bm, err := distkey.NewBlockMapper(s, p.Key, p.ClusteringFactor)
			if err != nil {
				return nil, fmt.Errorf("core: plan not executable: %w", err)
			}
			gi = len(j.groups)
			j.groups = append(j.groups, &geometry{bm: bm})
		}
		j.groups[gi].members = append(j.groups[gi].members, mi)
	}
	if len(j.groups) > 1 {
		for gi, g := range j.groups {
			g.tag = binary.AppendUvarint(nil, uint64(gi))
		}
	}

	var combiner mr.CombinerFactory
	if j.early {
		combiner = func(st *mr.TaskStats) mr.Combiner { return newEarlyAggCombiner(s, j.basics, st) }
	}
	// Grouping mode: block grouping and early aggregation only need pairs
	// grouped by block, so GroupAuto resolves to the hash collector; the
	// combined-key sort genuinely needs the full-key order and keeps the
	// external sorter (its composite keys also make GroupBy non-trivial).
	groupMode := e.cfg.GroupMode
	if j.combined {
		if groupMode == mr.GroupHash {
			return nil, fmt.Errorf("core: GroupHash is incompatible with CombinedKeySort (the combined key's secondary order needs the sorted path)")
		}
		groupMode = mr.GroupSort
	}
	mj := mr.Job{
		Name:   "casm",
		Input:  ds.Input,
		Map:    j.mapRecord,
		Reduce: j.reduce,
		Config: mr.Config{
			NumReducers:       e.cfg.NumReducers,
			Executor:          e.cfg.Executor,
			MapParallelism:    e.cfg.MapParallelism,
			ReduceParallelism: e.cfg.ReduceParallelism,
			Transport:         e.cfg.Transport,
			NewCombiner:       combiner,
			ShuffleDisabled:   e.cfg.Stage == StageMapOnly,
			GroupMode:         groupMode,
			MorselBytes:       e.cfg.MorselBytes,
			LocalAggBudget:    e.cfg.LocalAggBudget,
			SortMemoryItems:   e.cfg.SortMemoryItems,
			TempDir:           e.cfg.TempDir,
			NewMapLocal:       j.newMapLocal,
			NewReduceLocal:    j.newReduceLocal,
			FailureInjector:   e.cfg.FailureInjector,
		},
	}
	if j.combined {
		// Zero-alloc group identity: the (tag +) block key is a prefix
		// sub-slice of the combined shuffle key.
		mj.Config.GroupBy = func(key []byte) []byte {
			n := 0
			if len(j.groups) > 1 {
				if _, n = binary.Uvarint(key); n <= 0 {
					return key
				}
			}
			return key[:n+blockPrefixLen(key[n:], j.arity)]
		}
	}
	if e.cfg.Stage == StageMapOnly {
		mj.Reduce = nil
	}
	pipe, err := mr.RunPipe(ctx, mj)
	if err != nil {
		return nil, err
	}
	j.pipe = pipe
	return j, nil
}

// mapLocal is one map task's reusable state (mr.Config.NewMapLocal).
type mapLocal struct {
	// dks holds one distkey session (scratch + block-key intern cache for
	// allocation-free key generation) per geometry group.
	dks []*distkey.Session
	// rec is the task's record decode buffer, reused across records
	// (nothing downstream retains it — block keys are interned copies).
	rec cube.Record
	// tagged interns, per geometry group, the stable tag+block shuffle key
	// of each bare block key; nil when the shuffle is untagged.
	tagged []map[string][]byte
	// chunk is the current combined-key arena chunk. Combined keys are
	// unique per pair (block prefix + raw record), so they cannot be
	// interned; the arena instead amortizes their storage to one
	// allocation per chunk.
	chunk []byte
	// chunkNext is the next chunk's capacity: chunks grow geometrically
	// from combinedKeyChunkMin to combinedKeyChunkMax, so the many tasks
	// that emit only a few combined keys (sliding windows off, small
	// splits) don't each pin a fixed 64KiB.
	chunkNext int
}

const (
	combinedKeyChunkMin = 256
	combinedKeyChunkMax = 1 << 16
)

func (j *job) newMapLocal(*mr.TaskStats) any {
	ml := &mapLocal{dks: make([]*distkey.Session, len(j.groups)), rec: make(cube.Record, j.arity)}
	for gi, g := range j.groups {
		ml.dks[gi] = g.bm.NewSession()
	}
	if len(j.groups) > 1 && !j.combined {
		ml.tagged = make([]map[string][]byte, len(j.groups))
		for gi := range ml.tagged {
			ml.tagged[gi] = make(map[string][]byte)
		}
	}
	return ml
}

// mapRecord decodes a record once and emits it once per block of every
// geometry group: this loop is the shared scan and the shared shuffle.
// Each emitted value aliases the same raw record storage, so fan-out costs
// keys, not copies.
func (j *job) mapRecord(ctx *mr.MapCtx, raw []byte) error {
	ml := ctx.Local.(*mapLocal)
	if err := recio.DecodeRecordInto(raw, ml.rec); err != nil {
		return err
	}
	var hits int64
	for gi, sess := range ml.dks {
		tag := j.groups[gi].tag
		for _, block := range sess.Blocks(ml.rec) {
			key := block // interned: allocated once per distinct block per task
			switch {
			case j.combined:
				// Emit retains the key, so the composite key bytes must be
				// owned by the pair; the task arena gives them a stable home.
				key = ml.combinedKey(tag, block, raw)
			case ml.tagged != nil:
				k, ok := ml.tagged[gi][string(block)]
				if !ok {
					k = append(append(make([]byte, 0, len(tag)+len(block)), tag...), block...)
					ml.tagged[gi][string(block)] = k
				}
				key = k
			}
			if err := ctx.Emit(key, raw); err != nil {
				return err
			}
		}
		hits += sess.Hits
	}
	ctx.Stats.KeyCacheHits = hits
	return nil
}

// combinedKey appends tag+block+raw into the task arena and returns the
// stable composite key. A full chunk is abandoned (kept alive by the
// emitted keys pointing into it) and a fresh one started, so handed-out
// keys are never moved or logically extended by later appends.
func (ml *mapLocal) combinedKey(tag, block, raw []byte) []byte {
	need := len(tag) + len(block) + len(raw)
	if cap(ml.chunk)-len(ml.chunk) < need {
		size := max(ml.chunkNext, combinedKeyChunkMin)
		ml.chunkNext = min(size*2, combinedKeyChunkMax)
		ml.chunk = make([]byte, 0, max(size, need))
	}
	start := len(ml.chunk)
	ml.chunk = append(append(append(ml.chunk, tag...), block...), raw...)
	return ml.chunk[start:len(ml.chunk):len(ml.chunk)]
}

// reduceLocal is one reduce task's reusable state
// (mr.Config.NewReduceLocal), shared across all of the task's groups.
type reduceLocal struct {
	groups []*groupReduce // per geometry group
	rec    cube.Record    // decode buffer for groups with several members
	enc    []byte         // output-record encode scratch
	// cacheKey and capture are the result-reuse scratch: the probe key of
	// the current group and the cached-row encoding of its emitted output
	// (both copied before the cache retains them).
	cacheKey []byte
	capture  []byte
}

// groupReduce is one geometry group's slice of a reduce task: one distkey
// session (the geometry is shared, so one ownership probe cache serves
// every member) plus each member's arena-backed evaluator session.
type groupReduce struct {
	dk      *distkey.Session
	members []*memberReduce
}

type memberReduce struct {
	es  *localeval.Session
	tag []byte // uvarint output-key prefix; nil in a one-member job
	// names interns one stable output key per measure name for EmitStable
	// (output keys are retained by the framework uncopied).
	names map[string][]byte
}

func (m *memberReduce) key(measure string) []byte {
	kb, ok := m.names[measure]
	if !ok {
		kb = append(append(make([]byte, 0, len(m.tag)+len(measure)), m.tag...), measure...)
		m.names[measure] = kb
	}
	return kb
}

func (j *job) newReduceLocal(*mr.TaskStats) any {
	rl := &reduceLocal{groups: make([]*groupReduce, len(j.groups)), rec: make(cube.Record, j.arity)}
	for gi, g := range j.groups {
		gr := &groupReduce{dk: g.bm.NewSession()}
		for _, mi := range g.members {
			m := j.members[mi]
			mrd := &memberReduce{es: m.ev.NewSession(), names: make(map[string][]byte, len(m.w.Measures()))}
			if len(j.members) > 1 {
				mrd.tag = binary.AppendUvarint(nil, uint64(mi))
			}
			gr.members = append(gr.members, mrd)
		}
		rl.groups[gi] = gr
	}
	return rl
}

// reduce evaluates one block's record group for every member of its
// geometry group and emits each member's owned results.
func (j *job) reduce(ctx *mr.ReduceCtx, groupKey []byte, values *mr.GroupIter) error {
	rl := ctx.Local.(*reduceLocal)
	gr, blockKey := rl.groups[0], groupKey
	if len(rl.groups) > 1 {
		gi, n := binary.Uvarint(groupKey)
		if n <= 0 || gi >= uint64(len(rl.groups)) {
			return fmt.Errorf("core: shuffle key with bad geometry tag")
		}
		gr, blockKey = rl.groups[gi], groupKey[n:]
	}
	switch j.e.cfg.Stage {
	case StageShuffle:
		return values.Drain()
	case StageSort:
		if j.early {
			// Merging the partial states is the early-aggregation path's
			// sort (see evaluate); the stage stops before evaluation.
			_, pairs, err := collectPartials(values, j.basics, j.arity)
			ctx.Stats.GroupSortItems += pairs
			return err
		}
		es := gr.members[0].es
		if err := loadGroup(values, gr.members, rl.rec); err != nil {
			return err
		}
		ctx.Stats.GroupSortItems += int64(es.SortLoaded())
		ctx.Stats.EvalArenaBytes = es.ArenaBytes
		return nil
	}
	// Result-cache probe: a hit serves the block's owned rows straight
	// from the cache (the shuffled records are drained unread, their
	// evaluation skipped); a miss evaluates normally and captures the
	// emitted rows for the cache on the way out.
	ru := j.reuse
	if ru != nil {
		rl.cacheKey = append(append(rl.cacheKey[:0], ru.prefix...), blockKey...)
		if rows, ok := ru.rc.Get(rl.cacheKey); ok {
			ctx.Stats.ResultCacheHits++
			ctx.Stats.ResultCacheBytes += int64(len(rows))
			if err := values.Drain(); err != nil {
				return err
			}
			ru.note(rl.cacheKey)
			ctx.Stats.KeyCacheHits = gr.dk.Hits
			return ru.emitCached(ctx, gr.members[0], rows)
		}
		ctx.Stats.ResultCacheMisses++
		rl.capture = rl.capture[:0]
	}
	fill := ru != nil
	// Build the record group once for every member.
	if !j.early {
		if err := loadGroup(values, gr.members, rl.rec); err != nil {
			return err
		}
	}
	for _, m := range gr.members {
		results, err := j.evaluate(ctx, m.es, values)
		if err != nil {
			return err
		}
		// Ownership filter (Section III-B.2): only the block owning a
		// result's region may output it; duplicated and partial results in
		// overlapping neighbours are dropped here. Results alias the
		// evaluator session's arenas and are only valid inside this group —
		// emitting copies what survives the filter.
		for _, r := range results {
			if !bytes.Equal(gr.dk.Owner(r.Region), blockKey) {
				continue
			}
			rl.enc = appendMeasureRecord(rl.enc[:0], r.Region.Coord, r.Value)
			ctx.EmitStable(m.key(r.Measure), append([]byte(nil), rl.enc...))
			if fill {
				idx, ok := ru.canonIdx[r.Measure]
				if !ok {
					// Unmappable measure name: drop the fill and poison the
					// manifest rather than cache an incomplete block.
					fill = false
					ru.markIncomplete()
					continue
				}
				rl.capture = appendCachedRow(rl.capture, idx, rl.enc)
			}
		}
	}
	if fill {
		ru.rc.Put(rl.cacheKey, append([]byte(nil), rl.capture...))
		ru.note(rl.cacheKey)
	}
	var hits, arena, pool int64
	for _, g := range rl.groups {
		hits += g.dk.Hits
		for _, m := range g.members {
			arena += m.es.ArenaBytes
			pool += m.es.PoolHits
		}
	}
	ctx.Stats.KeyCacheHits = hits
	ctx.Stats.EvalArenaBytes = arena
	ctx.Stats.AggPoolHits = pool
	return nil
}

// evaluate runs local evaluation on one member's loaded block (or, under
// early aggregation, on the group's merged partial states).
func (j *job) evaluate(ctx *mr.ReduceCtx, es *localeval.Session, values *mr.GroupIter) ([]localeval.Result, error) {
	var results []localeval.Result
	var est localeval.Stats
	if j.early {
		groups, pairs, err := collectPartials(values, j.basics, j.arity)
		if err != nil {
			return nil, err
		}
		if results, est, err = es.EvaluateFromBasics(groups); err != nil {
			return nil, err
		}
		ctx.Stats.EvalRecords += pairs
		// Merging the partial states requires grouping them by (measure,
		// region); Hadoop does this by sorting, so the cost model prices it
		// like the in-group sort it replaces.
		ctx.Stats.GroupSortItems += pairs
	} else {
		var err error
		results, est, err = es.EvaluateBlock(localeval.Options{SkipSort: j.combined, Scan: j.e.cfg.LocalScan})
		if err != nil {
			return nil, err
		}
		ctx.Stats.EvalRecords += est.ScannedRecords
	}
	ctx.Stats.GroupSortItems += est.SortedItems
	ctx.Stats.WindowLookups += est.WindowLookups
	return results, nil
}

// loadGroup streams a group's records into its members' evaluator
// sessions. A lone member loads raw records straight into its columnar
// arena (one flat decode per record, no per-record slice allocations);
// several members decode each payload once into rec and copy the row.
func loadGroup(values *mr.GroupIter, ms []*memberReduce, rec cube.Record) error {
	for {
		p, ok, err := values.Next()
		if err != nil || !ok {
			return err
		}
		if len(ms) == 1 {
			if err := ms[0].es.AppendRaw(p.Value); err != nil {
				return err
			}
			continue
		}
		if err := recio.DecodeRecordInto(p.Value, rec); err != nil {
			return err
		}
		for _, m := range ms {
			m.es.AppendRecord(rec)
		}
	}
}

// --- output ---

// route is where one output key's rows belong: a member's measure.
type route struct {
	mi int // position in job.members
	m  *workflow.Measure
}

// next returns the job's next output row, in reduce-completion order, and
// where it belongs; ok=false ends the output (err, if any, is the job's).
// row is valid until the following call. Output keys resolve through a
// memo keyed by the raw key bytes, so the per-row lookup probes instead
// of allocating.
func (j *job) next() (r route, row []byte, ok bool, err error) {
	for j.i >= len(j.cur) {
		if j.cur != nil {
			transport.RecycleBatch(j.cur)
			j.cur = nil
		}
		_, pairs, ok, err := j.pipe.NextBatch()
		if err != nil || !ok {
			return route{}, nil, false, err
		}
		j.cur, j.i = pairs, 0
	}
	p := j.cur[j.i]
	j.i++
	if r, ok := j.routes[string(p.Key)]; ok {
		return r, p.Value, true, nil
	}
	mi, name := 0, p.Key
	if len(j.members) > 1 {
		u, n := binary.Uvarint(p.Key)
		if n <= 0 || u >= uint64(len(j.members)) {
			return route{}, nil, false, fmt.Errorf("core: output with bad query tag")
		}
		mi, name = int(u), p.Key[n:]
	}
	m, found := j.members[mi].w.Measure(string(name))
	if !found {
		return route{}, nil, false, fmt.Errorf("core: output for unknown measure %q", name)
	}
	r = route{mi: mi, m: m}
	j.routes[string(p.Key)] = r
	return r, p.Value, true, nil
}

// decodeRow decodes a packed <region coordinates, value> row, writing the
// coordinates into coords.
func decodeRow(b []byte, coords []int64) (float64, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("core: truncated measure record")
	}
	if err := cube.DecodeCoordsInto(b[:len(b)-8], coords); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[len(b)-8:])), nil
}

// collector assembles decoded rows into materialized results. Region
// coordinates are decoded into chunked arena storage: one allocation per
// coordChunk coordinates, handed-out sub-slices keep aliasing abandoned
// chunks.
type collector struct {
	arity int
	arena []int64
}

const coordChunk = 4096

func (c *collector) add(into map[string][]MeasureRecord, m *workflow.Measure, row []byte) error {
	if cap(c.arena)-len(c.arena) < c.arity {
		c.arena = make([]int64, 0, max(coordChunk, c.arity))
	}
	start := len(c.arena)
	c.arena = c.arena[:start+c.arity]
	coords := c.arena[start : start+c.arity : start+c.arity]
	v, err := decodeRow(row, coords)
	if err != nil {
		return err
	}
	into[m.Name] = append(into[m.Name], MeasureRecord{
		Region: cube.Region{Grain: m.Grain, Coord: coords},
		Value:  v,
	})
	return nil
}

func newResult(m *member, early bool) *Result {
	return &Result{
		Measures:        make(map[string][]MeasureRecord, len(m.w.Measures())),
		Plan:            m.outcome.Plan,
		SampledPlan:     m.outcome.Sampled,
		EarlyAggregated: early,
		SampleSeconds:   m.outcome.SampleSeconds,
		PlanCached:      m.outcome.DecisionCached,
	}
}

// materialize evaluates the members and returns one Result per member, in
// member order, plus the job that ran (nil when a one-member job's answer
// came whole from the result cache's manifest).
//
// The job's output is streamed: measure records are decoded into the
// results as reduce tasks emit them, concurrently with the rest of the
// reduce phase, instead of materializing one all-reducers []Pair first.
// The emitted Value buffers become garbage batch by batch and the batch
// slices recycle through the transport pool, so peak memory holds the
// decoded results, not the decoded results plus their wire form.
func (e *Engine) materialize(ctx context.Context, ds *Dataset, members []*member) ([]*Result, *job, error) {
	c := &collector{arity: ds.Schema.NumAttrs()}
	// Whole-query reuse: a committed manifest for this exact (dataset,
	// workflow structure, plan) assembles the answer without a job — no
	// input bytes scanned, no shuffle. Falls through on any gap.
	if len(members) == 1 {
		m := members[0]
		if ru := e.newResultReuse(m.w, ds, m.outcome.Plan); ru != nil {
			if res, js, ok := resultFromCache(ru, m, c); ok {
				e.finish([]*Result{res}, members, js)
				return []*Result{res}, nil, nil
			}
		}
	}
	j, err := e.startJob(ctx, ds, members)
	if err != nil {
		return nil, nil, err
	}
	defer j.pipe.Close() // tears the job down on assembly-error paths
	results := make([]*Result, len(members))
	for i, m := range members {
		results[i] = newResult(m, j.early)
	}
	for {
		r, row, ok, err := j.next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		if err := c.add(results[r.mi].Measures, r.m, row); err != nil {
			return nil, nil, err
		}
	}
	if err := j.pipe.Close(); err != nil {
		return nil, nil, err
	}
	e.finish(results, members, j.pipe.Stats())
	// The run drained every reduce group, so its touched-entry set is the
	// complete answer: publish the manifest for whole-query reuse.
	if j.reuse != nil {
		j.reuse.commit()
	}
	return results, j, nil
}

// finish gives every member's result the job's counters and simulated
// time, and puts each measure's rows in canonical order.
func (e *Engine) finish(results []*Result, members []*member, js mr.JobStats) {
	js, est := e.price(members, js)
	for _, res := range results {
		res.Stats, res.Estimate = js, est
		for _, ms := range res.Measures {
			sortMeasureRecords(ms)
		}
	}
}

// price stamps the members' reused planning decisions on the job's first
// map task (so the jobwide sum reads "plans this job did not recompute")
// and returns the simulated time, sampling passes included.
func (e *Engine) price(members []*member, js mr.JobStats) (mr.JobStats, costmodel.Estimate) {
	var cached int64
	var sample float64
	for _, m := range members {
		if m.outcome.DecisionCached {
			cached++
		}
		sample += m.outcome.SampleSeconds
	}
	if cached > 0 && len(js.MapTasks) > 0 {
		js.MapTasks[0].PlanCacheHits = cached
	}
	est := EstimateFromStats(e.cfg.Cluster, js)
	est.ReduceSeconds += sample
	return js, est
}

// sortMeasureRecords puts one measure's records in the canonical order:
// ascending encoded region coordinates. That is a total order, since the
// ownership filter emits each region exactly once, so the canonical result
// bytes are independent of reduce-completion interleaving.
func sortMeasureRecords(ms []MeasureRecord) {
	var ea, eb []byte // reused encode scratch
	sort.Slice(ms, func(i, j int) bool {
		ea = cube.AppendCoords(ea[:0], ms[i].Region.Coord)
		eb = cube.AppendCoords(eb[:0], ms[j].Region.Coord)
		return bytes.Compare(ea, eb) < 0
	})
}
