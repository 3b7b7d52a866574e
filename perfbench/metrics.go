package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/mr"
)

// probeTexts is how many of serve_mix's most requested templates the
// layer probes measure.
const probeTexts = 6

// probeRepeats is how often each ladder stage runs per probed query; the
// median is kept.
func (sp *spec) probeRepeats() int {
	if sp.Serve {
		return 1
	}
	return 3
}

// layers computes the per-layer metrics of a traced run from the traced
// window pt, the untraced window pu, and direct probes of each layer on
// the workload's own data and plans. It prints one line per probed query
// to out.
func (sp *spec) layers(ctx context.Context, o runOpts, env workloadEnv, pu, pt *pass, tr *tracer, qid *int, ingestMBs float64, out io.Writer) (map[string]metric, error) {
	data := env.dataset()
	cfg := sp.Engine
	cfg.TempDir = filepath.Join(o.work, "tmp")
	v := map[string]float64{}
	done := pt.completed()
	nq := float64(max(len(done), 1))

	var first, repeat []float64
	for _, s := range done {
		if s.First {
			first = append(first, ms(s.Latency))
		} else {
			repeat = append(repeat, ms(s.Latency))
		}
	}
	v["serve.first_p50_ms"] = median(first)
	v["serve.repeat_p50_ms"] = median(repeat)
	lat := func(s sample) float64 { return ms(s.Latency) }
	v["trace.overhead_ratio"] = div(sp.central(done, lat), sp.central(pu.completed(), lat))
	// How late the load generator (serve) or the closed-loop caller
	// (batch) issued each request: a check on the measurement itself.
	v["gen_lag_ms"] = sp.central(pt.Samples, func(s sample) float64 { return ms(s.Lag) })
	v["core.alloc_mb_per_query"] = float64(pt.AllocBytes) / (1 << 20) / nq
	v["blockstore.bytes_read_per_query"] = float64(pt.BytesRead) / nq
	v["blockstore.ingest_mb_s"] = ingestMBs

	// Which queries the probes measure: the whole batch list, or the
	// most requested serve templates.
	var probed []query
	if sp.Serve {
		count := map[int]int{}
		for _, s := range done {
			count[s.Query]++
		}
		idx := make([]int, 0, len(count))
		for qi := range count {
			idx = append(idx, qi)
		}
		sort.Slice(idx, func(a, b int) bool {
			if count[idx[a]] != count[idx[b]] {
				return count[idx[a]] > count[idx[b]]
			}
			return idx[a] < idx[b]
		})
		for i := 0; i < len(idx) && i < probeTexts; i++ {
			probed = append(probed, sp.Queries[idx[i]])
		}
	} else {
		probed = sp.Queries
	}
	var probes []*probe
	for _, q := range probed {
		p, err := probeQuery(ctx, cfg, data, q, sp.probeRepeats(), tr, *qid)
		*qid++
		if err != nil {
			return nil, err
		}
		probes = append(probes, p)
		run := p.Full.Wall + p.Assemble
		fmt.Fprintf(out, "probe %-22s %6d blocks, %.2f pairs/record, job %8.2f ms, assembly %8.2f ms (%.0f%% of the run)\n",
			q.Name, p.Blocks, div(float64(p.Pairs), float64(len(data.records))), ms(p.Full.Wall), ms(p.Assemble),
			100*div(float64(p.Assemble), float64(run)))
	}
	var mapMS, shuffleMS, sortMS, evalMS, keygen, evalBlock, assemble []float64
	var pairs int64
	for _, p := range probes {
		mapMS = append(mapMS, ms(p.Stage[0]))
		shuffleMS = append(shuffleMS, ms(p.Stage[1]-p.Stage[0]))
		sortMS = append(sortMS, ms(p.Stage[2]-p.Stage[1]))
		evalMS = append(evalMS, ms(p.Stage[3]-p.Stage[2]))
		keygen = append(keygen, ms(p.Keygen))
		evalBlock = append(evalBlock, ms(p.Eval))
		assemble = append(assemble, ms(p.Assemble))
		pairs += p.Pairs
	}
	v["mr.map_ms"] = mean(mapMS)
	v["mr.shuffle_group_ms"] = mean(shuffleMS)
	v["mr.group_sort_ms"] = mean(sortMS)
	v["localeval.eval_ms"] = mean(evalMS)
	v["localeval.evaluate_block_ms"] = mean(evalBlock)
	v["distkey.keygen_ms"] = mean(keygen)
	v["distkey.pairs_per_record"] = div(float64(pairs), float64(len(probes)*len(data.records)))

	// Job counters: the traced window's own jobs for batch; serve's
	// window mostly hits the caches, so its cold probe jobs instead.
	var jobs []mr.JobStats
	if sp.Serve {
		for _, p := range probes {
			jobs = append(jobs, p.Full)
		}
	} else {
		for _, s := range done {
			jobs = append(jobs, *s.Stats)
		}
	}
	jobMetrics(jobs, v)

	scans := make([]float64, 0, 3)
	var scanBytes int64
	for i := 0; i < 3; i++ {
		d, b, err := scanProbe(data, tr, *qid)
		if err != nil {
			return nil, err
		}
		scans = append(scans, d.Seconds())
		scanBytes = b
	}
	scanS := median(scans)
	v["blockstore.scan_ms"] = scanS * 1e3
	v["blockstore.scan_mb_s"] = div(float64(scanBytes)/(1<<20), scanS)

	if sp.Serve {
		se := env.(*serveEnv)
		c := pt.cache
		v["blockstore.cache_hit_ratio"] = ratio(c.Hits, c.Hits+c.Misses)
		v["blockstore.manifest_hit_ratio"] = ratio(c.ManifestHits, int64(pt.requests))
		v["blockstore.cache_evictions"] = float64(c.Evictions)
		v["optimizer.decision_hit_ratio"] = ratio(c.PlanHits, c.PlanHits+c.PlanMisses)
		var queue, encode []float64
		for _, s := range done {
			queue = append(queue, s.QueueMS)
			encode = append(encode, ms(s.ConnLat)-s.WallMS-s.QueueMS)
		}
		v["exec.queue_ms"] = mean(queue)
		v["serve.encode_ms"] = mean(encode)
		v["core.assemble_ms"] = mean(assemble)
		v["core.unattributed_ms"] = meanSelf(pt.Spans, "request")
		// Planning and parsing as the server does them, for every
		// request of the window: the plan against the service's warm
		// decision cache.
		ds, err := se.svc.Dataset(dataFile)
		if err != nil {
			return nil, err
		}
		var plan, parse []float64
		for _, s := range done {
			text := sp.Queries[s.Query].Text
			t0 := time.Now()
			w, err := cql.Parse(ds.Schema, text)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			if _, err := se.svc.Engine().PlanContext(ctx, w, ds); err != nil {
				return nil, err
			}
			t2 := time.Now()
			parse = append(parse, float64(t1.Sub(t0))/float64(time.Microsecond))
			plan = append(plan, ms(t2.Sub(t1)))
			tr.record(*qid, -1, "cql.parse", t0, t1)
			tr.record(*qid, -1, "optimizer.plan", t1, t2)
			*qid++
		}
		v["optimizer.plan_ms"] = mean(plan)
		v["cql.parse_us"] = mean(parse)
	} else {
		queue, encode, err := serviceProbe(ctx, cfg, data, sp.Queries, tr, *qid)
		*qid++
		if err != nil {
			return nil, err
		}
		v["exec.queue_ms"] = queue
		v["serve.encode_ms"] = encode
		v["core.assemble_ms"] = meanSelf(pt.Spans, "core.run")
		v["core.unattributed_ms"] = meanSelf(pt.Spans, "query")
		v["optimizer.plan_ms"] = meanDur(pt.Spans, "optimizer.plan")
		v["cql.parse_us"] = meanDur(pt.Spans, "cql.parse") * 1e3
		// No caches on the batch path: every ratio is of nothing.
		v["blockstore.cache_hit_ratio"] = 0
		v["blockstore.manifest_hit_ratio"] = 0
		v["blockstore.cache_evictions"] = 0
		v["optimizer.decision_hit_ratio"] = 0
	}
	return withUnits(perLayer, v), nil
}

// jobMetrics derives the mr and localeval counters from job stats, as
// means per job.
func jobMetrics(jobs []mr.JobStats, v map[string]float64) {
	var shuffled, spill, skew, lookups []float64
	var merges, inputs int64
	for _, js := range jobs {
		shuffled = append(shuffled, float64(js.Shuffled)/(1<<20))
		var sp, lk int64
		var walls []float64
		for _, t := range js.ReduceTasks {
			sp += t.SpillBytes + t.GroupSpillBytes
			lk += t.WindowLookups
			walls = append(walls, float64(t.Wall))
		}
		for _, t := range js.MapTasks {
			merges += t.CombineMerges
			inputs += t.CombineInputs
		}
		spill = append(spill, float64(sp)/(1<<20))
		lookups = append(lookups, float64(lk))
		if m := mean(walls); m > 0 {
			mx := walls[0]
			for _, w := range walls {
				mx = max(mx, w)
			}
			skew = append(skew, mx/m)
		}
	}
	v["mr.shuffled_mb"] = mean(shuffled)
	v["mr.spill_mb"] = mean(spill)
	v["mr.reduce_skew"] = mean(skew)
	v["mr.combine_merge_ratio"] = ratio(merges, inputs)
	v["localeval.window_lookups"] = mean(lookups)
}

func ratio(a, b int64) float64 { return div(float64(a), float64(b)) }

// div is a / b, or 0 when b is 0 (an empty window has no rates).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.Latency)
	}
	return out
}

// meanDur is the mean duration, in milliseconds, of spans named name.
func meanDur(spans []span, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, ms(s.dur()))
		}
	}
	return mean(xs)
}
