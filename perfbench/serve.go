package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"time"

	"github.com/casm-project/casm/internal/core"
	"github.com/casm-project/casm/internal/serve"
)

// tenantConns is how many connections each tenant's client may open.
// The service admits one request per tenant at a time, so at most two
// requests, one per tenant, are in service at once; a tenant's second
// connection carries its next request into the service's admission
// queue, where the wait is measured.
const tenantConns = 2

// serveEnv is a set-up serve workload: a resident service with a
// decision cache and a store-backed result cache, behind serve.Server on
// a loopback listener, and one HTTP client per tenant, so one tenant's
// backlog never holds a connection the other needs.
type serveEnv struct {
	sp      *spec
	data    *dataset
	svc     *core.Service
	hs      *http.Server
	served  chan error
	clients map[string]*http.Client
	url     string
	sent    map[int]bool // templates sent before, warm-up included
	// arrivals is the window's request schedule.
	arrivals []arrival
}

func (sp *spec) setupServe(ctx context.Context, seed int64, dir, tmp string) (*serveEnv, error) {
	data, err := sp.ingestStore(seed, dir)
	if err != nil {
		return nil, err
	}
	cfg := sp.Engine
	cfg.TempDir = tmp
	svc, err := core.NewService(core.ServiceConfig{
		Engine:            cfg,
		Store:             data.st,
		ResultCacheBytes:  sp.CacheBytes,
		PerTenantInFlight: 1,
	})
	if err != nil {
		data.st.Close()
		return nil, err
	}
	if err := svc.RegisterStore(dataFile, data.ds.Schema, data.st, dataFile); err != nil {
		svc.Drain(ctx)
		data.st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain(ctx)
		data.st.Close()
		return nil, err
	}
	e := &serveEnv{
		sp:      sp,
		data:    data,
		svc:     svc,
		hs:      &http.Server{Handler: serve.New(svc)},
		served:  make(chan error, 1),
		clients: map[string]*http.Client{},
		url:     "http://" + ln.Addr().String() + "/query?dataset=" + dataFile,
		sent:    map[int]bool{},
	}
	for _, t := range tenants {
		e.clients[t] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     tenantConns,
			MaxIdleConnsPerHost: tenantConns,
			DisableCompression:  true,
		}}
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	for i := 0; i < sp.Warm && i < len(sp.Queries); i++ {
		if _, _, err := e.request(ctx, tenants[i%len(tenants)], sp.Queries[i].Text); err != nil {
			e.close(ctx)
			return nil, fmt.Errorf("warm-up %s: %w", sp.Queries[i].Name, err)
		}
		e.sent[i] = true
	}
	return e, nil
}

func (e *serveEnv) run(ctx context.Context, tr *tracer, qid *int) (*pass, error) {
	return e.pass(ctx, e.arrivals, tr, qid)
}

func (e *serveEnv) dataset() *dataset { return e.data }

// close stops the HTTP server, drains the service and closes the store,
// waiting for the server goroutine to return.
func (e *serveEnv) close(ctx context.Context) error {
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	if derr := e.svc.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := e.data.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// reply is the part of a /query response the benchmark reads.
type reply struct {
	QueueMS  float64         `json:"queue_ms"`
	WallMS   float64         `json:"wall_ms"`
	Measures json.RawMessage `json:"measures"`
	body     []byte
}

// stamps are the client-side instants of one request.
type stamps struct {
	Send    time.Time // handed to the client
	GotConn time.Time // a connection was free
	Last    time.Time // the last response byte arrived
}

// request sends one query and reads the whole response.
func (e *serveEnv) request(ctx context.Context, tenant, text string) (*reply, stamps, error) {
	var st stamps
	trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { st.GotConn = time.Now() }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodPost, e.url, strings.NewReader(text))
	if err != nil {
		return nil, st, err
	}
	req.Header.Set("X-Casm-Tenant", tenant)
	st.Send = time.Now()
	resp, err := e.clients[tenant].Do(req)
	if err != nil {
		st.Last = time.Now()
		return nil, st, err
	}
	body, err := io.ReadAll(resp.Body)
	st.Last = time.Now()
	resp.Body.Close()
	if st.GotConn.IsZero() {
		st.GotConn = st.Send
	}
	if err != nil {
		return nil, st, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, st, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	rep := &reply{body: body}
	if err := json.Unmarshal(body, rep); err != nil {
		return nil, st, fmt.Errorf("decoding response: %w", err)
	}
	return rep, st, nil
}

// cacheDelta is what the service's caches and store did in a window.
type cacheDelta struct {
	Hits, Misses, ManifestHits, Evictions int64
	PlanHits, PlanMisses                  int64
}

func cacheSnapshot(svc *core.Service) cacheDelta {
	st := svc.Stats()
	d := cacheDelta{PlanHits: st.PlanCacheHits, PlanMisses: st.PlanCacheMisses}
	if rc := st.ResultCache; rc != nil {
		d.Hits, d.Misses, d.ManifestHits, d.Evictions = rc.Hits, rc.Misses, rc.ManifestHits, rc.Evictions
	}
	return d
}

func (a cacheDelta) sub(b cacheDelta) cacheDelta {
	return cacheDelta{a.Hits - b.Hits, a.Misses - b.Misses, a.ManifestHits - b.ManifestHits,
		a.Evictions - b.Evictions, a.PlanHits - b.PlanHits, a.PlanMisses - b.PlanMisses}
}

// pass sends the schedule open-loop: each request leaves at its due time
// whether or not earlier ones have returned, and waits client-side for
// one of the bounded connections. Latency runs from the due time to the
// last response byte, so a stall is charged to every request it delays.
func (e *serveEnv) pass(ctx context.Context, arrivals []arrival, tr *tracer, qid *int) (*pass, error) {
	p := &pass{digests: map[int][][32]byte{}, keep: map[int]any{}, requests: len(arrivals)}
	heap := startHeapSampler(5 * time.Millisecond)
	alloc0 := allocatedBytes()
	read0 := e.data.st.Stats()
	cache0 := cacheSnapshot(e.svc)
	samples := make([]sample, len(arrivals))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lastDone time.Time
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		woke := time.Now()
		samples[i] = sample{Query: a.Query, First: !e.sent[a.Query], Lag: woke.Sub(due)}
		e.sent[a.Query] = true
		id := *qid
		*qid++
		wg.Add(1)
		go func(i int, a arrival, due, woke time.Time, id int) {
			defer wg.Done()
			rep, st, err := e.request(ctx, a.Tenant, e.sp.Queries[a.Query].Text)
			last := st.Last
			s := &samples[i]
			s.Latency = last.Sub(due)
			s.ConnLat = last.Sub(st.GotConn)
			if err != nil {
				s.Err = fmt.Errorf("%s: %w", e.sp.Queries[a.Query].Name, err)
			} else {
				s.QueueMS, s.WallMS = rep.QueueMS, rep.WallMS
			}
			mu.Lock()
			if last.After(lastDone) {
				lastDone = last
			}
			if err == nil {
				p.digests[a.Query] = append(p.digests[a.Query], sha256.Sum256(rep.Measures))
				if _, ok := p.keep[a.Query]; !ok {
					p.keep[a.Query] = rep.body
				}
			}
			mu.Unlock()
			if tr != nil && err == nil {
				root := tr.record(id, -1, "request", due, last)
				tr.record(id, root, "client.wait", due, woke)
				req := tr.record(id, root, "http.request", st.Send, last)
				tr.record(id, req, "client.conn_wait", st.Send, st.GotConn)
				// The server's own stamps, placed back to back from the
				// moment a connection carried the request: admission
				// wait, then evaluation. What is left of http.request is
				// parsing, encoding and transfer.
				q := time.Duration(rep.QueueMS * float64(time.Millisecond))
				w := time.Duration(rep.WallMS * float64(time.Millisecond))
				tr.record(id, req, "exec.admission", st.GotConn, st.GotConn.Add(q))
				tr.record(id, req, "core.evaluate", st.GotConn.Add(q), st.GotConn.Add(q+w))
			}
		}(i, a, due, woke, id)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		heap.Stop()
		return nil, err
	}
	if lastDone.IsZero() {
		lastDone = time.Now()
	}
	p.Window = lastDone.Sub(start)
	p.PeakHeapMB = heap.Stop()
	p.AllocBytes = allocatedBytes() - alloc0
	read1 := e.data.st.Stats()
	p.BytesRead = read1.BytesRead - read0.BytesRead
	p.Scanned = e.data.scanned(read1.BlockReads - read0.BlockReads)
	p.cache = cacheSnapshot(e.svc).sub(cache0)
	p.Samples = samples
	p.Spans = tr.snapshot()
	return p, nil
}
