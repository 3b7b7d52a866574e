package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"time"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/workload"
)

// Sizing shared by every workload.
const (
	numReducers    = 8
	storeBlockSize = 128 << 10 // several input splits per dataset
	storeReplicas  = 3         // casmgen's default placement
	storeNodes     = 10
	dataFile       = "data"
)

// query is one CQL text the benchmark sends.
type query struct {
	Name string
	Text string
}

// spec defines one workload.
type spec struct {
	Name  string
	Serve bool
	Gen   workload.GenOpts // N, Dist and Zipf; Seed comes from --seed
	// Queries is the batch caller's list, in order, or the serve
	// workload's template family, hottest rank first.
	Queries []query
	// Engine holds the planning and evaluation knobs (caches and
	// TempDir are filled in per run).
	Engine core.Config

	// Serve only.
	Rate       float64 // offered requests per second, both tenants together
	ZipfS      float64 // exponent of the template popularity draw
	Warm       int     // hottest templates sent once during set-up
	CacheBytes int64   // result-cache bound
}

var workloadNames = []string{"batch_fine", "batch_window", "serve_mix"}

// slidingWindowQuery is the fine-grain sliding window of batch_window: a
// per-minute sum and its trailing window of width minutes.
func slidingWindowQuery(width int) string {
	return fmt.Sprintf(`MEASURE base = SUM(a2) AT (a1:value, t1:minute);
MEASURE slide = WINDOW SUM(base) OVER t1(-%d, 0) AT (a1:value, t1:minute);
`, width)
}

// serveFamily is serve_mix's template family in popularity rank order.
// Templates vary the aggregate, its attribute, the grain and the
// presence of a sliding window; the order interleaves the kinds so the
// hot head mixes cheap and expensive templates. Rank 2 asks for a large
// answer (SUM(a2) by a1:low, a2:high and hour, about 1.9 MB of JSON): its
// repeats come from the result cache but spend most of their time
// encoding and sending the body, longer than a cold job over the small
// answers takes. At 9% of the requests they fill the slowest few percent
// almost alone and set the latency tail, as a large cached answer does
// for a real client.
func serveFamily() []query {
	aggs := []string{"SUM(a2)", "AVG(a3)", "MAX(a4)", "COUNT(*)"}
	grains := []struct{ at, step, win string }{
		{"(a1:low, t1:day)", "t1(-6, 0)", "a1low_day"},
		{"(a2:low, t1:day)", "t1(-3, 0)", "a2low_day"},
		{"(a3:high, t1:hour)", "t1(-12, 0)", "a3high_hour"},
	}
	var out []query
	for wi := 0; wi < 2; wi++ {
		for ai, agg := range aggs {
			for gi := range grains {
				g := grains[(gi+ai)%len(grains)]
				text := fmt.Sprintf("MEASURE base = %s AT %s;\n", agg, g.at)
				name := fmt.Sprintf("agg%d_%s", ai, g.win)
				if wi == 1 {
					text += fmt.Sprintf("MEASURE win = WINDOW SUM(base) OVER %s AT %s;\n", g.step, g.at)
					name += "_win"
				}
				out = append(out, query{Name: name, Text: text})
			}
		}
	}
	large := query{Name: "agg0_a1low_a2high_hour_large", Text: "MEASURE base = SUM(a2) AT (a1:low, a2:high, t1:hour);\n"}
	return slices.Insert(out, 2, large)
}

// recordScale multiplies every workload's record count. It is 1 for the
// benchmark; the package's tests shrink it to run every workload quickly.
var recordScale = 1.0

// specs returns the workloads.
func specs() map[string]*spec {
	su := workload.NewSuite()
	n := func(base int) int { return int(math.Max(200, math.Round(float64(base)*recordScale))) }
	fine := []query{
		{"q1", cql.Format(su.Q1())},
		{"q2", cql.Format(su.Q2())},
		{"q3", cql.Format(su.Q3())},
		{"q4", cql.Format(su.Q4())},
	}
	ds0, err := su.DS(0)
	if err != nil {
		panic(err) // DS0 is a fixed query of the suite
	}
	window := []query{
		{"q5", cql.Format(su.Q5())},
		{"q6", cql.Format(su.Q6())},
		{"ds0", cql.Format(ds0)},
		{"slide200", slidingWindowQuery(200)},
	}
	return map[string]*spec{
		"batch_fine": {
			Name:    "batch_fine",
			Gen:     workload.GenOpts{N: n(20_000), Dist: workload.Uniform},
			Queries: fine,
			Engine:  core.Config{NumReducers: numReducers, EarlyAggregation: core.EarlyAggAuto},
		},
		"batch_window": {
			Name:    "batch_window",
			Gen:     workload.GenOpts{N: n(20_000), Dist: workload.Uniform, Zipf: 1.5},
			Queries: window,
			Engine: core.Config{NumReducers: numReducers, EarlyAggregation: core.EarlyAggAuto,
				SkewMode: core.SkewSampling},
		},
		"serve_mix": {
			Name:       "serve_mix",
			Serve:      true,
			Gen:        workload.GenOpts{N: n(20_000), Dist: workload.Uniform},
			Queries:    serveFamily(),
			Engine:     core.Config{NumReducers: numReducers, EarlyAggregation: core.EarlyAggAuto},
			Rate:       20,
			ZipfS:      1.3,
			Warm:       6,
			CacheBytes: 1134 << 10,
		},
	}
}

// records generates the workload's input for a seed.
func (sp *spec) records(seed int64) ([]cube.Record, error) {
	opts := sp.Gen
	opts.Seed = seed
	return workload.NewSuite().GenerateOpts(opts)
}

// arrival is one scheduled serve request.
type arrival struct {
	At     time.Duration // offset from the start of the window
	Tenant string
	Query  int // index into the template family
}

var tenants = []string{"analyst-a", "analyst-b"}

// schedule draws the open-loop request schedule for a window: a Poisson
// process of the offered rate conditioned on its expected count (so the
// count is fixed and the arrival instants are uniform order statistics),
// each arrival from a random tenant. Template popularity is Zipf, and it
// is conditioned the same way: each template is requested its expected
// number of times (rounded by largest remainder), and its c requests are
// spread over the sequence, one at a random point of each of c equal
// stretches. Every seed thus sends the same mix of hot and cold requests
// with similar gaps between repeats, so how often a repeat finds its
// answer evicted varies little from seed to seed.
func (sp *spec) schedule(seed int64, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	k := int(math.Max(1, math.Round(sp.Rate*window.Seconds())))
	at := make([]float64, k)
	for i := range at {
		at[i] = rng.Float64() * float64(window)
	}
	sort.Float64s(at)
	type slot struct {
		pos   float64
		query int
	}
	var slots []slot
	for r, c := range zipfCounts(len(sp.Queries), sp.ZipfS, k) {
		for j := 0; j < c; j++ {
			slots = append(slots, slot{(float64(j) + rng.Float64()) / float64(c), r})
		}
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a].pos < slots[b].pos })
	out := make([]arrival, k)
	for i := range out {
		out[i] = arrival{
			At:     time.Duration(at[i]),
			Tenant: tenants[rng.Intn(len(tenants))],
			Query:  slots[i].query,
		}
	}
	return out
}

// zipfCounts splits k requests over n templates, rank r getting a share
// proportional to (r+1)^-s, rounded by largest remainder so the counts
// sum to k.
func zipfCounts(n int, s float64, k int) []int {
	weights := make([]float64, n)
	var total float64
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -s)
		total += weights[r]
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := k
	for r, w := range weights {
		exact := w / total * float64(k)
		counts[r] = int(exact)
		rem[r] = exact - float64(counts[r])
		left -= counts[r]
	}
	order := make([]int, n)
	for r := range order {
		order[r] = r
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, r := range order[:left] {
		counts[r]++
	}
	return counts
}

// dataset is a workload's input ingested into a block store.
type dataset struct {
	st      *blockstore.Store
	ds      *core.Dataset
	records []cube.Record
	ingest  time.Duration // WriteRecords wall
	rawMB   float64       // decoded bytes ingested
	blocks  int64         // store blocks of the input file
}

// scanned converts a number of block reads into the input records they
// cover. A job scans each block of the input once, and nothing else
// reads the store while a window runs, so this is the records read.
func (d *dataset) scanned(reads int64) float64 {
	return float64(reads) * float64(d.ds.NumRecords) / float64(d.blocks)
}

// ingestStore generates the records, writes them into a fresh block
// store under dir, and opens the store file as a dataset.
func (sp *spec) ingestStore(seed int64, dir string) (*dataset, error) {
	records, err := sp.records(seed)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := blockstore.Open(blockstore.Config{
		Dir: dir, BlockSize: storeBlockSize, Replication: storeReplicas, NumNodes: storeNodes, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	schema := workload.NewSuite().Schema
	t0 := time.Now()
	if err := workload.WriteStore(st, dataFile, schema, records); err != nil {
		st.Close()
		return nil, err
	}
	ingest := time.Since(t0)
	info, err := st.FileInfo(dataFile)
	if err != nil {
		st.Close()
		return nil, err
	}
	return &dataset{
		st:      st,
		records: records,
		ingest:  ingest,
		rawMB:   float64(info.RawBytes) / (1 << 20),
		blocks:  int64(info.Blocks),
		ds: &core.Dataset{
			Schema:     schema,
			Input:      mr.NewStoreInput(st, dataFile),
			NumRecords: info.Records,
			Tag:        st.DatasetTag(dataFile),
		},
	}, nil
}
