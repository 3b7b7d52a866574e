package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/casm-project/casm/internal/core"
)

// TestMain shrinks every workload to a few hundred records.
func TestMain(m *testing.M) {
	recordScale = 0.01
	os.Exit(m.Run())
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		sp := specs()[name]
		a, err := sp.records(1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := sp.records(1)
		c, _ := sp.records(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 generated different records twice", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same records", name)
		}
	}
	sp := specs()["serve_mix"]
	a := sp.schedule(1, 30*time.Second)
	if !reflect.DeepEqual(a, sp.schedule(1, 30*time.Second)) {
		t.Error("seed 1 drew different request schedules twice")
	}
	if reflect.DeepEqual(a, sp.schedule(2, 30*time.Second)) {
		t.Error("seeds 1 and 2 drew the same request schedule")
	}
	if len(a) != int(sp.Rate*30) {
		t.Errorf("schedule has %d arrivals, want %v", len(a), sp.Rate*30)
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatal("arrivals out of order")
		}
	}
}

// TestScheduleMixIsFixed checks that every seed requests each template
// its Zipf share of times, hottest rank most often.
func TestScheduleMixIsFixed(t *testing.T) {
	sp := specs()["serve_mix"]
	mix := func(seed int64) []int {
		counts := make([]int, len(sp.Queries))
		for _, a := range sp.schedule(seed, 30*time.Second) {
			counts[a.Query]++
		}
		return counts
	}
	want := zipfCounts(len(sp.Queries), sp.ZipfS, int(sp.Rate*30))
	total := 0
	for r, c := range want {
		total += c
		if r > 0 && c > want[r-1] {
			t.Errorf("rank %d requested %d times, more than rank %d (%d)", r, c, r-1, want[r-1])
		}
	}
	if total != int(sp.Rate*30) || want[len(want)-1] < 1 {
		t.Errorf("zipfCounts %v: total %d, every template should be requested", want, total)
	}
	for _, seed := range []int64{1, 2, 3} {
		if got := mix(seed); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: template counts %v, want %v", seed, got, want)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the command must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func defsOf(xs []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, x := range xs {
		out[x.Name] = x.Unit
	}
	return out
}

func unitsOf(ms map[string]metric) map[string]string {
	out := map[string]string{}
	for name, m := range ms {
		out[name] = m.Unit
	}
	return out
}

// TestPrintedNamesMatchBenchmarkFile runs every workload at a tiny scale,
// untraced and traced, and compares the metric names and units on the
// last line of output with BENCHMARK.json.
func TestPrintedNamesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	want := append([]string(nil), workloadNames...)
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for _, name := range workloadNames {
		for trace, defs := range map[string]map[string]string{"0": defsOf(bf.EndToEnd), "1": defsOf(bf.PerLayer)} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", trace,
				"--workdir", t.TempDir()}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d: %s", name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s --trace %s: last line: %v", name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s --trace %s: correct %v attempted %d failed %d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if got := unitsOf(rep.Metrics); !reflect.DeepEqual(got, defs) {
				t.Errorf("%s --trace %s: printed metrics %v, BENCHMARK.json has %v", name, trace, got, defs)
			}
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "batch_fine", "--trace", "2"},
		{"--workload", "batch_fine", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestCheckTripsOnPerturbedResult perturbs one value of a correct answer
// by far more than the tolerance and a repeat's digest, and requires the
// check to count both as failures.
func TestCheckTripsOnPerturbedResult(t *testing.T) {
	ctx := context.Background()
	sp := specs()["batch_fine"]
	dir := t.TempDir()
	o := runOpts{seed: 1, window: time.Millisecond, work: dir}
	envI, err := sp.setup(ctx, o, o.window)
	if err != nil {
		t.Fatal(err)
	}
	env := envI.(*batchEnv)
	defer env.close(ctx)
	qid := 0
	p, err := env.run(ctx, nil, &qid)
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker(sp, o)
	if err := chk.check(ctx, env.data, p); err != nil {
		t.Fatal(err)
	}
	if chk.failed != 0 || len(chk.problems) != 0 {
		t.Fatalf("unperturbed window failed: %v", chk.problems)
	}

	res := p.keep[0].(*core.Result)
	bad := &core.Result{Measures: map[string][]core.MeasureRecord{}}
	for name, recs := range res.Measures {
		bad.Measures[name] = append([]core.MeasureRecord(nil), recs...)
	}
	for name := range bad.Measures {
		bad.Measures[name][0].Value = bad.Measures[name][0].Value*(1+1e-6) + 1e-6
		break
	}
	if compareAnswers(answerOf(res), answerOf(bad)) == nil {
		t.Fatal("compareAnswers accepted a perturbed value")
	}
	if digest(res) == digest(bad) {
		t.Fatal("digest did not change with a perturbed value")
	}
	p.keep[0] = bad
	p.digests[0] = append(p.digests[0], digest(bad))
	chk = newChecker(sp, o)
	if err := chk.check(ctx, env.data, p); err != nil {
		t.Fatal(err)
	}
	if chk.failed < 2 || len(chk.problems) < 2 {
		t.Errorf("perturbed window: failed %d, problems %v", chk.failed, chk.problems)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	tl := tailOf(xs)
	beyond := 0
	for _, x := range xs {
		if x > tl.Value {
			beyond++
		}
	}
	if beyond != tailBeyond || tl.Samples != 100 || tl.Percentile != 90 {
		t.Errorf("tail %+v has %d samples beyond it", tl, beyond)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.record(1, -1, "query", at(0), at(100))
	tr.record(1, root, "a", at(10), at(40))
	tr.record(1, root, "b", at(30), at(60))  // overlaps a
	tr.record(1, root, "c", at(90), at(120)) // runs past the root
	self := layerSelf(tr.snapshot())
	if self["query"] != 40 || self["a"] != 30 || self["b"] != 30 || self["c"] != 30 {
		t.Errorf("self times %v", self)
	}
}
