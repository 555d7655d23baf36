package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/etable"
	"repro/internal/exec"
	"repro/internal/graphrel"
	"repro/internal/ops"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/session"
)

// The traced run replays the clients' scripts in process, one request
// at a time, as a single stream. Each pass boots the snapshot afresh
// and replays the same first n requests of the stream:
//
//	untraced  ServeHTTP with no instrumentation (the overhead baseline
//	          and the runtime counters)
//	server    ServeHTTP, one span per request (depth 1)
//	allocs    ServeHTTP with runtime.MemStats read between requests
//	loopback  the same handler behind a loopback listener
//	session   the handler's calls into ops and session.Session (depth 2)
//	etable    each resulting pattern through the etable entry points
//	          (depth 3)
//
// A layer's self time is its span minus the spans one depth below on
// the same request. Counters are read between requests, never inside
// one. The passes call only entry points meant to outlive the planned
// executor simplifications: ServeHTTP, ops.DecodePipeline,
// ApplyPipelineCtx, WindowCtx, PlanFor, MatchSource, PrepareFromSource
// and Presentation.Window.

// item is one request of the replayed stream.
type item struct {
	client int
	req    *request
}

// stream flattens the scripts: every client's setup, then the loops
// interleaved request by request, each wrapping around, up to max
// requests. It returns the stream and the index its loop part starts at.
func stream(scripts []script, max int) ([]item, int) {
	var out []item
	for c := range scripts {
		for i := range scripts[c].setup {
			out = append(out, item{c, &scripts[c].setup[i]})
		}
	}
	start := len(out)
	for i := 0; len(out) < max; i++ {
		for c := range scripts {
			out = append(out, item{c, &scripts[c].loop[i%len(scripts[c].loop)]})
		}
	}
	return out, start
}

// span is one timed call. req is the request's index in the stream.
type span struct {
	Pass  string `json:"pass"`
	Name  string `json:"name"`
	Depth int    `json:"depth"`
	Req   int    `json:"req"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps the spans of one pass in memory.
type tracer struct {
	pass  string
	t0    time.Time
	spans []span
}

// time runs f as a span and returns its duration in seconds.
func (t *tracer) time(name string, depth, req int, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	t.spans = append(t.spans, span{t.pass, name, depth, req, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return end.Sub(start).Seconds()
}

// record adds a span timed by the caller, ending now.
func (t *tracer) record(name string, depth, req int, seconds float64) {
	end := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{t.pass, name, depth, req, end - int64(seconds*1e9), end})
}

// boot is one fresh load of the served snapshot, configured as the
// server binary is for the workload.
type boot struct {
	reg    *registry.Registry
	ds     *registry.Dataset
	openMs float64
}

func (e *env) boot() (*boot, error) {
	// Each pass starts from a collected heap: the garbage of the pass
	// before must not be paid for by this one.
	runtime.GC()
	reg := registry.New(registry.Options{})
	ds, err := reg.AddSnapshotOpts("default", e.snapshot, registry.SnapshotOptions{Lazy: e.w.lazy, PoolSections: e.w.pagerSections})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := ds.Ensure(context.Background()); err != nil {
		return nil, err
	}
	return &boot{reg: reg, ds: ds, openMs: float64(time.Since(start).Microseconds()) / 1e3}, nil
}

func (e *env) newServer(b *boot) *server.Server {
	return server.NewFromRegistry(b.reg, server.Options{MaxSessions: maxSessions, MaxRows: e.w.maxRows, SpillDir: e.spillDir})
}

// handlerClient replays requests against an http.Handler in process.
type handlerClient struct {
	h       http.Handler
	ids     [][]int64
	cursors [][]string
	rec     *httptest.ResponseRecorder
}

func newHandlerClient(h http.Handler, scripts []script) *handlerClient {
	hc := &handlerClient{h: h}
	for _, sc := range scripts {
		hc.ids = append(hc.ids, make([]int64, sc.slots))
		hc.cursors = append(hc.cursors, make([]string, sc.slots))
	}
	return hc
}

// prepare builds the request of it.
func (hc *handlerClient) prepare(it item) (*http.Request, error) {
	method, path, body, err := target(it.req, hc.ids[it.client][it.req.slot], hc.cursors[it.client][it.req.slot])
	if err != nil {
		return nil, err
	}
	hc.rec = httptest.NewRecorder()
	return httptest.NewRequest(method, path, bytes.NewReader(body)), nil
}

// finish checks the response of the last prepared request.
func (hc *handlerClient) finish(it item) error {
	return check(it.req, hc.rec.Code, hc.rec.Body.Bytes(), hc.ids[it.client], hc.cursors[it.client])
}

// perRequest holds one value per stream request.
type perRequest []float64

// layerData is everything the passes measure, per stream request.
type layerData struct {
	items    []item
	loopFrom int
	// server pass
	serve perRequest
	// allocs pass
	mallocs, respBytes perRequest
	// loopback pass
	roundTrip perRequest
	// session pass
	decode, compile, apply, window perRequest
	executed                       []bool
	patterns                       []*etable.Pattern
	winOffset, winLimit            []int
	// etable pass
	plan, execT, ewindow, rows perRequest
	planHits, planLookups      int64
	// counters, over the loop part of the server pass
	cacheHits, cacheMisses            int64
	pagerFaults, pagerEvictions       int64
	pagerFaultNanos                   int64
	spills, spillRunBytes, spillFault int64
	mergePasses                       int64
	pinnedBytes, residentBytes        int64
	// untraced pass
	untracedWall, tracedWall time.Duration
	gcs                      uint32
	allocBytes               uint64
	openMs                   []float64
	failed                   map[int]bool
	firstErr                 error
}

// fail records that request i failed on a pass; a request counts once
// however many passes it failed on.
func (d *layerData) fail(pass string, i int, err error) {
	d.failed[i] = true
	if d.firstErr == nil {
		d.firstErr = fmt.Errorf("%s pass, request %d: %w", pass, i, err)
	}
}

// traced runs the passes and reports the per-layer metrics.
func (e *env) traced(scripts []script) (report, error) {
	var rep report
	budget := time.Duration(e.seconds) * time.Second / 6
	all, loopFrom := stream(scripts, 200000)
	d := &layerData{loopFrom: loopFrom, failed: map[int]bool{}}
	var tracers []*tracer

	// The server pass sets n: as many requests as fit in the budget.
	b, err := e.boot()
	if err != nil {
		return rep, err
	}
	d.openMs = append(d.openMs, b.openMs)
	srv := e.newServer(b)
	hc := newHandlerClient(srv, scripts)
	tr := &tracer{pass: "server", t0: time.Now()}
	tracers = append(tracers, tr)
	var before countersAt
	deadline := time.Now().Add(budget)
	for i, it := range all {
		if i == loopFrom {
			before = readCounters(b.ds)
		}
		if i >= loopFrom && time.Now().After(deadline) {
			d.items = all[:i]
			break
		}
		req, err := hc.prepare(it)
		if err != nil {
			d.fail("server", i, err)
			d.serve = append(d.serve, 0)
			continue
		}
		d.serve = append(d.serve, tr.time("server.ServeHTTP", 1, i, func() { hc.h.ServeHTTP(hc.rec, req) }))
		if err := hc.finish(it); err != nil {
			d.fail("server", i, err)
		}
	}
	d.tracedWall = time.Since(tr.t0)
	d.setCounters(before, readCounters(b.ds), b.ds.Cache().MemStatsNow())
	n := len(d.items)
	logf("server pass: %d requests", n)

	if err := e.untracedPass(d, scripts); err != nil {
		return rep, err
	}
	if err := e.allocsPass(d, scripts); err != nil {
		return rep, err
	}
	if tr, err = e.loopbackPass(d, scripts); err != nil {
		return rep, err
	}
	tracers = append(tracers, tr)
	if tr, err = e.sessionPass(d, scripts); err != nil {
		return rep, err
	}
	tracers = append(tracers, tr)
	if tr, err = e.etablePass(d); err != nil {
		return rep, err
	}
	tracers = append(tracers, tr)
	if err := e.writeSpans(tracers); err != nil {
		return rep, err
	}
	d.report(&rep)
	return rep, nil
}

// countersAt is a reading of the dataset's cache, pager and spill
// counters.
type countersAt struct {
	hits, misses                      int64
	faults, evictions, faultNanos     int64
	spills, runBytes, spillFaults, mp int64
}

func readCounters(ds *registry.Dataset) countersAt {
	c := countersAt{hits: ds.Cache().Hits(), misses: ds.Cache().Misses()}
	if st, _, ok := ds.PagerStats(); ok {
		c.faults, c.evictions, c.faultNanos = st.Faults, st.Evictions, st.FaultNanos
	}
	sp := ds.SpillMetrics().Snapshot()
	c.spills, c.runBytes, c.spillFaults, c.mp = sp.Spills, sp.RunBytes, sp.Faults, sp.MergePasses
	return c
}

func (d *layerData) setCounters(a, b countersAt, ms etable.MemStats) {
	d.cacheHits, d.cacheMisses = b.hits-a.hits, b.misses-a.misses
	d.pagerFaults, d.pagerEvictions, d.pagerFaultNanos = b.faults-a.faults, b.evictions-a.evictions, b.faultNanos-a.faultNanos
	d.spills, d.spillRunBytes, d.spillFault, d.mergePasses = b.spills-a.spills, b.runBytes-a.runBytes, b.spillFaults-a.spillFaults, b.mp-a.mp
	d.pinnedBytes, d.residentBytes = ms.PinnedBytes, ms.ResidentBytes
}

// untracedPass replays the stream with no instrumentation, for the
// tracing overhead and the runtime's GC and allocation counters.
func (e *env) untracedPass(d *layerData, scripts []script) error {
	b, err := e.boot()
	if err != nil {
		return err
	}
	d.openMs = append(d.openMs, b.openMs)
	hc := newHandlerClient(e.newServer(b), scripts)
	var m0, m1 runtime.MemStats
	start := time.Now()
	for i, it := range d.items {
		if i == d.loopFrom {
			runtime.ReadMemStats(&m0)
		}
		req, err := hc.prepare(it)
		if err == nil {
			hc.h.ServeHTTP(hc.rec, req)
			err = hc.finish(it)
		}
		if err != nil {
			d.fail("untraced", i, err)
		}
	}
	d.untracedWall = time.Since(start)
	runtime.ReadMemStats(&m1)
	d.gcs, d.allocBytes = m1.NumGC-m0.NumGC, m1.TotalAlloc-m0.TotalAlloc
	return nil
}

// allocsPass counts the heap allocations of each ServeHTTP call.
func (e *env) allocsPass(d *layerData, scripts []script) error {
	b, err := e.boot()
	if err != nil {
		return err
	}
	d.openMs = append(d.openMs, b.openMs)
	hc := newHandlerClient(e.newServer(b), scripts)
	var m0, m1 runtime.MemStats
	for i, it := range d.items {
		req, err := hc.prepare(it)
		if err != nil {
			d.fail("allocs", i, err)
			d.mallocs, d.respBytes = append(d.mallocs, 0), append(d.respBytes, 0)
			continue
		}
		runtime.ReadMemStats(&m0)
		hc.h.ServeHTTP(hc.rec, req)
		runtime.ReadMemStats(&m1)
		d.mallocs = append(d.mallocs, float64(m1.Mallocs-m0.Mallocs))
		d.respBytes = append(d.respBytes, float64(hc.rec.Body.Len()))
		if err := hc.finish(it); err != nil {
			d.fail("allocs", i, err)
		}
	}
	return nil
}

// loopbackPass times each request over a loopback connection to the
// same handler, from send to body read.
func (e *env) loopbackPass(d *layerData, scripts []script) (*tracer, error) {
	b, err := e.boot()
	if err != nil {
		return nil, err
	}
	d.openMs = append(d.openMs, b.openMs)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: e.newServer(b)}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	defer func() {
		hs.Close()
		<-served
	}()
	c := newClient("http://"+l.Addr().String(), script{})
	defer c.close()
	tr := &tracer{pass: "loopback", t0: time.Now()}
	ids := make([][]int64, len(scripts))
	cursors := make([][]string, len(scripts))
	for k, sc := range scripts {
		ids[k], cursors[k] = make([]int64, sc.slots), make([]string, sc.slots)
	}
	for i, it := range d.items {
		c.ids, c.cursors = ids[it.client], cursors[it.client]
		rt, err := c.exchange(it.req)
		tr.record("net.RoundTrip", 0, i, rt)
		d.roundTrip = append(d.roundTrip, rt)
		if err == nil {
			err = check(it.req, c.status, c.buf.Bytes(), c.ids, c.cursors)
		}
		if err != nil {
			d.fail("loopback", i, err)
		}
	}
	return tr, nil
}

// liveSessions mirrors the server's session bound: at maxSessions live
// sessions, creating one closes the least recently used.
type liveSessions struct {
	sess [][]*session.Session
	used [][]int
	tick int
	live int
}

func (l *liveSessions) touch(client, slot int) {
	l.tick++
	l.used[client][slot] = l.tick
}

func (l *liveSessions) add(client, slot int, s *session.Session) {
	if old := l.sess[client][slot]; old != nil {
		old.Close()
		l.live--
	}
	for l.live >= maxSessions {
		bc, bs, best := -1, -1, 0
		for c := range l.sess {
			for k, s := range l.sess[c] {
				if s != nil && (bc < 0 || l.used[c][k] < best) {
					bc, bs, best = c, k, l.used[c][k]
				}
			}
		}
		l.sess[bc][bs].Close()
		l.sess[bc][bs] = nil
		l.live--
	}
	l.sess[client][slot] = s
	l.live++
	l.touch(client, slot)
}

// sessionPass makes the handler's calls into ops and session.Session
// directly, on sessions configured as the server configures them.
func (e *env) sessionPass(d *layerData, scripts []script) (*tracer, error) {
	b, err := e.boot()
	if err != nil {
		return nil, err
	}
	d.openMs = append(d.openMs, b.openMs)
	pool, budget := exec.NewPool(runtime.GOMAXPROCS(0)), min(4, runtime.GOMAXPROCS(0))
	live := &liveSessions{}
	for _, sc := range scripts {
		live.sess = append(live.sess, make([]*session.Session, sc.slots))
		live.used = append(live.used, make([]int, sc.slots))
	}
	type last struct{ offset, rows, limit int }
	lastWin := map[[2]int]last{}
	n := len(d.items)
	d.decode, d.compile, d.apply, d.window = make(perRequest, n), make(perRequest, n), make(perRequest, n), make(perRequest, n)
	d.executed, d.patterns = make([]bool, n), make([]*etable.Pattern, n)
	d.winOffset, d.winLimit = make([]int, n), make([]int, n)
	ctx := context.Background()
	tr := &tracer{pass: "session", t0: time.Now()}
	for i, it := range d.items {
		r, key := it.req, [2]int{it.client, it.req.slot}
		if r.class == classCreate {
			s := session.NewWithExec(b.ds.Schema(), b.ds.Graph(), b.ds.Cache(), pool, budget)
			s.SetMaxRows(e.w.maxRows)
			if e.w.maxRows > 0 {
				s.SetSpill(&graphrel.SpillPolicy{Dir: e.spillDir, TriggerRows: e.w.maxRows,
					Pool: b.ds.SpillPool(), Metrics: b.ds.SpillMetrics()})
			}
			live.add(it.client, r.slot, s)
			continue
		}
		s := live.sess[it.client][r.slot]
		live.touch(it.client, r.slot)
		misses := b.ds.Cache().Misses()
		offset, limit := r.offset, r.limit
		var err error
		if r.class == classOp {
			var pl ops.Pipeline
			d.decode[i] = tr.time("ops.DecodePipeline", 2, i, func() { pl, err = ops.DecodePipeline(r.body) })
			if err == nil {
				d.compile[i] = tr.time("ops.Compile", 2, i, func() { _, err = pl.Compile(b.ds.Schema()) })
			}
			if err == nil {
				d.apply[i] = tr.time("session.ApplyPipelineCtx", 2, i, func() { err = s.ApplyPipelineCtx(ctx, pl) })
			}
		} else if r.cursor {
			lw := lastWin[key]
			offset, limit = lw.offset+lw.rows, lw.limit
		}
		var res *etable.Result
		if err == nil {
			d.window[i] = tr.time("session.WindowCtx", 2, i, func() { res, err = s.WindowCtx(ctx, offset, limit) })
		}
		if err == nil {
			if got := resultAnswer(s.Pattern().String(), res); got.hash != r.want.hash {
				err = fmt.Errorf("session result differs from the oracle's")
			}
			lastWin[key] = last{res.Offset, len(res.Rows), limit}
		}
		if err != nil {
			d.fail("session", i, err)
			continue
		}
		d.executed[i] = b.ds.Cache().Misses() > misses
		d.patterns[i], d.winOffset[i], d.winLimit[i] = s.Pattern(), offset, limit
	}
	for c := range live.sess {
		for _, s := range live.sess[c] {
			if s != nil {
				s.Close()
			}
		}
	}
	return tr, nil
}

// countingSource counts the matched rows a stream yields.
type countingSource struct {
	graphrel.RowSource
	rows int
}

func (c *countingSource) Next() (*graphrel.Relation, error) {
	b, err := c.RowSource.Next()
	if b != nil {
		c.rows += b.Len()
	}
	return b, err
}

// presentations keeps the latest prepared presentation of recent
// patterns, closing (and so releasing any spill files of) the evicted.
type presentations struct {
	m     map[string]*etable.Presentation
	order []string
}

func (p *presentations) put(key string, pres *etable.Presentation) {
	if old, ok := p.m[key]; ok {
		closePresentation(old)
	} else {
		p.order = append(p.order, key)
	}
	p.m[key] = pres
	for len(p.order) > 2*maxSessions {
		closePresentation(p.m[p.order[0]])
		delete(p.m, p.order[0])
		p.order = p.order[1:]
	}
}

// closePresentation releases a spilled presentation's run files, where
// the presentation type has a Close.
func closePresentation(p *etable.Presentation) {
	if c, ok := any(p).(io.Closer); ok {
		c.Close()
	}
}

// etablePass runs each op's resulting pattern through planning,
// streamed matching and preparation when the session pass executed it,
// and every request's window through Presentation.Window.
func (e *env) etablePass(d *layerData) (*tracer, error) {
	b, err := e.boot()
	if err != nil {
		return nil, err
	}
	d.openMs = append(d.openMs, b.openMs)
	g := b.ds.Graph()
	opt := etable.ExecOptions{Ctx: context.Background(), Pool: exec.NewPool(runtime.GOMAXPROCS(0)),
		Parallelism: min(4, runtime.GOMAXPROCS(0)), MaxRows: e.w.maxRows}
	if e.w.maxRows > 0 {
		opt.Spill = &graphrel.SpillPolicy{Dir: e.spillDir, TriggerRows: e.w.maxRows,
			Pool: b.ds.SpillPool(), Metrics: b.ds.SpillMetrics()}
	}
	prepare := func(p *etable.Pattern) (*etable.Presentation, int, error) {
		src, err := etable.MatchSource(g, p, opt)
		if err != nil {
			return nil, 0, err
		}
		cs := &countingSource{RowSource: src}
		pres, _, err := etable.PrepareFromSource(g, p, cs, opt)
		return pres, cs.rows, err
	}
	n := len(d.items)
	d.plan, d.execT, d.ewindow, d.rows = make(perRequest, n), make(perRequest, n), make(perRequest, n), make(perRequest, n)
	pres := &presentations{m: map[string]*etable.Presentation{}}
	defer func() {
		for _, p := range pres.m {
			closePresentation(p)
		}
	}()
	tr := &tracer{pass: "etable", t0: time.Now()}
	for i, it := range d.items {
		p := d.patterns[i]
		if p == nil {
			continue // a create, or a request the session pass failed
		}
		key := p.String()
		var err error
		if d.executed[i] && it.req.class == classOp {
			st0 := etable.PlannerStatsFor(g)
			d.plan[i] = tr.time("etable.PlanFor", 3, i, func() { _, err = etable.PlanFor(g, p) })
			st1 := etable.PlannerStatsFor(g)
			d.planHits += st1.Hits - st0.Hits
			d.planLookups += st1.Hits - st0.Hits + st1.Misses - st0.Misses
			// The session matched against base relations it had cached
			// and columns it had just paged in; a first, untimed run
			// gives the timed one the same warm inputs. Only the match
			// and the prepare are recomputed, as in the session.
			var pr *etable.Presentation
			var rows int
			if err == nil {
				if pr, _, err = prepare(p); err == nil {
					closePresentation(pr)
				}
			}
			if err == nil {
				d.execT[i] = tr.time("etable.MatchSource+PrepareFromSource", 3, i, func() { pr, rows, err = prepare(p) })
			}
			if err == nil {
				pres.put(key, pr)
				d.rows[i] = float64(rows)
			}
		} else if _, ok := pres.m[key]; !ok {
			// The session served this table from the result cache; the
			// presentation is built outside any span.
			var pr *etable.Presentation
			if pr, _, err = prepare(p); err == nil {
				pres.put(key, pr)
			}
		}
		if err == nil {
			pr := pres.m[key]
			d.ewindow[i] = tr.time("etable.Window", 3, i, func() { _, err = pr.Window(d.winOffset[i], d.winLimit[i]) })
		}
		if err != nil {
			d.fail("etable", i, err)
		}
	}
	return tr, nil
}

// writeSpans writes every pass's spans, one JSON object a line, under
// .bench_build/traces.
func (e *env) writeSpans(tracers []*tracer) error {
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.w.name, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	logf("spans written to %s", path)
	return f.Close()
}

// loopMean averages xs over the loop requests of class c.
func (d *layerData) loopMean(xs perRequest, c class) (float64, int) {
	sum, n := 0.0, 0
	for i := d.loopFrom; i < len(d.items); i++ {
		if d.items[i].req.class == c {
			sum += xs[i]
			n++
		}
	}
	return sum / float64(max(n, 1)), n
}

// execMean averages xs over the ops, anywhere in the stream, that the
// session pass executed: on warm-paging only the untimed session set-up
// executes.
func (d *layerData) execMean(xs perRequest) (float64, int) {
	sum, n := 0.0, 0
	for i := range d.items {
		if d.executed[i] && d.items[i].req.class == classOp {
			sum += xs[i]
			n++
		}
	}
	return sum / float64(max(n, 1)), n
}

// classSelf holds the mean spans of one request class and the self
// times derived from them.
type classSelf struct {
	n                                      int
	serve, decode, server, session, etable float64
}

func (d *layerData) report(rep *report) {
	n := len(d.items)
	sessionCalls, etableCalls, decodeAll, netOverhead := make(perRequest, n), make(perRequest, n), make(perRequest, n), make(perRequest, n)
	for i := range sessionCalls {
		sessionCalls[i] = d.apply[i] + d.window[i]
		etableCalls[i] = d.plan[i] + d.execT[i] + d.ewindow[i]
		decodeAll[i] = d.decode[i] + d.compile[i]
		netOverhead[i] = d.roundTrip[i] - d.serve[i]
	}
	// Self times per request class: a layer's mean span minus the mean
	// spans one depth below, over the loop requests of the class. The
	// difference is negative where the depth below took longer on its
	// own pass than the call containing it; the metrics report it as
	// measured, and the accounting check counts it as zero, so that such
	// excess shows as layers adding up to more than the request.
	var total, layers float64
	var selfs [len(classNames)]classSelf
	for c := range selfs {
		cs := &selfs[c]
		cs.serve, cs.n = d.loopMean(d.serve, class(c))
		cs.decode, _ = d.loopMean(d.decode, class(c))
		sess, _ := d.loopMean(sessionCalls, class(c))
		cs.etable, _ = d.loopMean(etableCalls, class(c))
		cs.server, cs.session = cs.serve-cs.decode-sess, sess-cs.etable
		total += float64(cs.n) * cs.serve
		layers += float64(cs.n) * (max(0, cs.server) + cs.decode + max(0, cs.session) + cs.etable)
	}
	page, op := selfs[classPage], selfs[classOp]
	loopN := n - d.loopFrom
	ratio := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }
	us := func(v float64, k int) (float64, int) { return v * 1e6, k }
	add := func(name, unit string, v float64, k int) { rep.add(name, v, unit, k) }

	v, k := us(d.loopMean(netOverhead, classPage))
	add("net.overhead_us", "us", v, k)
	add("server.self_us.page", "us", page.server*1e6, page.n)
	add("server.self_us.op", "us", op.server*1e6, op.n)
	v, k = d.loopMean(d.mallocs, classPage)
	add("server.allocs.page", "count", v, k)
	v, k = d.loopMean(d.respBytes, classPage)
	add("server.resp_bytes.page", "bytes", v, k)
	v, k = us(d.loopMean(decodeAll, classOp))
	add("ops.decode_us", "us", v, k)
	v, k = us(d.loopMean(d.apply, classOp))
	add("session.apply_us", "us", v, k)
	add("session.self_us.op", "us", op.session*1e6, op.n)
	v, k = us(d.loopMean(d.window, classPage))
	add("session.window_us", "us", v, k)
	v, k = us(d.execMean(d.plan))
	add("etable.plan_us", "us", v, k)
	add("etable.plan_cache_hit_ratio", "ratio", ratio(d.planHits, d.planLookups), int(d.planLookups))
	v, k = us(d.execMean(d.execT))
	add("etable.exec_us", "us", v, k)
	v, k = d.execMean(d.rows)
	add("etable.match_rows", "count", v, k)
	v, k = us(d.loopMean(d.ewindow, classPage))
	add("etable.window_us", "us", v, k)
	add("etable.cache_hit_ratio", "ratio", ratio(d.cacheHits, d.cacheHits+d.cacheMisses), int(d.cacheHits+d.cacheMisses))
	add("etable.pinned_mb", "MiB", float64(d.pinnedBytes)/(1<<20), 1)
	add("etable.cache_resident_mb", "MiB", float64(d.residentBytes)/(1<<20), 1)
	add("pager.faults_per_req", "count", ratio(d.pagerFaults, int64(loopN)), loopN)
	add("pager.fault_share", "ratio", float64(d.pagerFaultNanos)/1e9/max(total, 1e-9), loopN)
	add("pager.evictions_per_req", "count", ratio(d.pagerEvictions, int64(loopN)), loopN)
	add("spill.spills_per_op", "count", ratio(d.spills, int64(op.n)), op.n)
	add("spill.run_mb_per_op", "MiB", ratio(d.spillRunBytes, int64(op.n))/(1<<20), op.n)
	add("spill.faults_per_page", "count", ratio(d.spillFault, int64(page.n)), page.n)
	add("spill.merge_passes", "count", ratio(d.mergePasses, int64(op.n)), op.n)
	sort.Float64s(d.openMs)
	add("snapshot.open_ms", "ms", d.openMs[len(d.openMs)/2], len(d.openMs))
	add("runtime.gc_per_1k_req", "count", 1000*ratio(int64(d.gcs), int64(loopN)), loopN)
	add("runtime.alloc_mb_per_1k_req", "MiB", 1000*ratio(int64(d.allocBytes), int64(loopN))/(1<<20), loopN)
	selfSum := layers / max(total, 1e-9)
	add("trace.self_sum_ratio", "ratio", selfSum, loopN)
	add("trace.overhead_ratio", "ratio", d.tracedWall.Seconds()/d.untracedWall.Seconds()-1, n)
	if selfSum < 0.9 || selfSum > 1.1 {
		// A fault of the instrument, not of the program's outputs: it
		// is reported, and does not make the run incorrect.
		rep.notes = append(rep.notes, fmt.Sprintf("layer self times sum to %.3f of the traced request time, not within 10%%", selfSum))
	}
	rep.attempted, rep.failed = n, len(d.failed)
	if d.firstErr != nil {
		rep.problems = append(rep.problems, d.firstErr.Error())
	}
}
