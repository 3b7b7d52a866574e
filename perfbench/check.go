package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/cql"
	"github.com/casm-project/casm/internal/cube"
)

// relTol is the relative tolerance between an answer and the reference,
// the same bound the engine's own oracle tests use.
const relTol = 1e-9

// digest hashes a result's measures in canonical order: measures by
// name, records in the order the engine returns them (sorted by region
// key), each record as its encoded coordinates and its value's bits.
func digest(res *core.Result) [32]byte {
	h := sha256.New()
	names := make([]string, 0, len(res.Measures))
	for name := range res.Measures {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf []byte
	for _, name := range names {
		recs := res.Measures[name]
		buf = append(buf[:0], name...)
		buf = binary.AppendUvarint(buf, uint64(len(recs)))
		h.Write(buf)
		for _, r := range recs {
			buf = cube.AppendCoords(buf[:0], r.Region.Coord)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Value))
			h.Write(buf)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// answer is a result reduced to what correctness depends on: each
// measure's value per region key.
type answer map[string]map[string]float64

func answerOf(res *core.Result) answer {
	out := make(answer, len(res.Measures))
	for name, recs := range res.Measures {
		m := make(map[string]float64, len(recs))
		for _, r := range recs {
			m[r.Region.Key()] = r.Value
		}
		out[name] = m
	}
	return out
}

// answerOfJSON decodes the measures of a serve /query response.
func answerOfJSON(body []byte) (answer, error) {
	var resp struct {
		Measures map[string][]struct {
			Coords []int64 `json:"coords"`
			Value  float64 `json:"value"`
		} `json:"measures"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	out := make(answer, len(resp.Measures))
	for name, rows := range resp.Measures {
		m := make(map[string]float64, len(rows))
		for _, r := range rows {
			m[cube.EncodeCoords(r.Coords)] = r.Value
		}
		out[name] = m
	}
	return out, nil
}

// compareAnswers reports the first difference between got and the
// reference: a missing or extra measure or region, or a value outside
// the relative tolerance.
func compareAnswers(want, got answer) error {
	for name, wm := range want {
		gm, ok := got[name]
		if !ok {
			return fmt.Errorf("measure %s missing", name)
		}
		if len(gm) != len(wm) {
			return fmt.Errorf("measure %s: %d regions, want %d", name, len(gm), len(wm))
		}
		for k, wv := range wm {
			gv, ok := gm[k]
			if !ok {
				return fmt.Errorf("measure %s: region %x missing", name, k)
			}
			if !(math.Abs(gv-wv) <= relTol*math.Max(1, math.Abs(wv))) {
				return fmt.Errorf("measure %s: region %x: value %v, want %v", name, k, gv, wv)
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("unexpected measure %s", name)
		}
	}
	return nil
}

// checker verifies answers after each window and counts failures.
type checker struct {
	sp        *spec
	cfg       core.Config
	ref       map[int]answer // reference answers, per query
	attempted int
	failed    int
	problems  []string
}

func newChecker(sp *spec, o runOpts) *checker {
	cfg := core.Config{NumReducers: numReducers, TempDir: filepath.Join(o.work, "tmp")}
	return &checker{sp: sp, cfg: cfg, ref: map[int]answer{}}
}

// check verifies a window: every repeat of a query must digest the same,
// and the first answer of each query must match the component-at-a-time
// reference on the same data.
func (c *checker) check(ctx context.Context, data *dataset, p *pass) error {
	c.attempted += len(p.Samples)
	count := map[int]int{}
	for _, s := range p.Samples {
		count[s.Query]++
		if s.Err != nil {
			c.failed++
			c.problems = append(c.problems, s.Err.Error())
		}
	}
	for qi, ds := range p.digests {
		for _, d := range ds[1:] {
			if d != ds[0] {
				c.failed++
				c.problems = append(c.problems, fmt.Sprintf("%s: a repeat answered differently", c.sp.Queries[qi].Name))
			}
		}
	}
	qs := make([]int, 0, len(p.keep))
	for qi := range p.keep {
		qs = append(qs, qi)
	}
	sort.Ints(qs)
	for _, qi := range qs {
		want, err := c.reference(ctx, data, qi)
		if err != nil {
			return err
		}
		var got answer
		switch a := p.keep[qi].(type) {
		case *core.Result:
			got = answerOf(a)
		case []byte:
			if got, err = answerOfJSON(a); err != nil {
				return err
			}
		default:
			return errors.New("unknown answer type")
		}
		if err := compareAnswers(want, got); err != nil {
			c.failed += count[qi]
			c.problems = append(c.problems, fmt.Sprintf("%s: %v", c.sp.Queries[qi].Name, err))
		}
	}
	return nil
}

func (c *checker) reference(ctx context.Context, data *dataset, qi int) (answer, error) {
	if a, ok := c.ref[qi]; ok {
		return a, nil
	}
	w, err := cql.Parse(data.ds.Schema, c.sp.Queries[qi].Text)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(c.cfg)
	if err != nil {
		return nil, err
	}
	res, err := eng.RunComponentAtATimeContext(ctx, w, data.ds)
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w", c.sp.Queries[qi].Name, err)
	}
	a := answerOf(res)
	c.ref[qi] = a
	return a, nil
}
