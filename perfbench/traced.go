package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/viz"
)

// chain is the traced run's sender. Every k-th request skips HTTP and walks
// the serving path's public pieces in process — ParseRequest,
// Server.ResultKeyFor, Server.Handle, encode — each in its own span. When
// such a request is a plan miss (its shape was not yet sent at the current
// data version), a shadow decomposition then re-runs the miss's public
// pieces outside the server — BuildQuery, core.BuildContext,
// Rewriter.Rewrite, core.BuildRQ, DB.RunCachedYield, viz.Grid.Counts — so
// their costs can be read separately. The shadow's result is discarded.
type chain struct {
	d     *deployment
	tr    *tracer
	l     *loader
	every int

	mu                       sync.Mutex                   // guards everything below
	seen                     map[string]uint64            // dataset+body → 1 + data version last sent at
	rws                      map[string]*core.MDPRewriter // shadow rewriters (not concurrency-safe)
	opts, explored, examined []float64                    // per shadow: |Ω|+1, options estimated, rows examined per output row
	fallbacks, shadows       int
}

// newChain builds the traced sender; primed tiles count as already planned.
func newChain(d *deployment, l *loader, every int, primed []shape) *chain {
	c := &chain{d: d, tr: d.tracer, l: l, every: every, seen: make(map[string]uint64), rws: make(map[string]*core.MDPRewriter)}
	for _, sh := range primed {
		if srv, err := d.server(sh.dataset); err == nil {
			c.seen[sh.dataset+"\x00"+string(sh.body)] = srv.DataVersion() + 1
		}
	}
	return c
}

func (c *chain) send(i int, sh shape, sid string, due time.Time, keep bool) result {
	srv, err := c.d.server(sh.dataset)
	if err != nil {
		return result{dataset: sh.dataset, due: due, start: time.Now(), end: time.Now()}
	}
	version := srv.DataVersion() + 1
	k := sh.dataset + "\x00" + string(sh.body)
	c.mu.Lock()
	miss := c.seen[k] != version
	c.seen[k] = version
	c.mu.Unlock()
	if i%c.every != 0 {
		return c.l.viz(sh, sid, due, keep)
	}
	return c.inproc(srv, sh, due, keep, miss)
}

// inproc serves one request through the in-process chain.
func (c *chain) inproc(srv *middleware.Server, sh shape, due time.Time, keep, miss bool) result {
	r := result{dataset: sh.dataset, due: due, start: time.Now()}
	req := c.l.reqIDs.Add(1)
	root := c.tr.newID()
	var (
		mreq middleware.Request
		resp *middleware.Response
		buf  bytes.Buffer
		err  error
	)
	c.tr.time("middleware.parse", root, req, func() { mreq, err = middleware.ParseRequest(sh.body) })
	if err == nil {
		c.tr.time("middleware.plan", root, req, func() { _, err = srv.ResultKeyFor(mreq) })
	}
	if err == nil {
		c.tr.time("middleware.handle", root, req, func() { resp, err = srv.Handle(mreq) })
	}
	if err == nil {
		c.tr.time("middleware.encode", root, req, func() { err = json.NewEncoder(&buf).Encode(resp) })
	}
	r.end = time.Now()
	c.tr.add(root, 0, req, "client.inproc", r.start, r.end)
	if err == nil {
		r.code = http.StatusOK
	}
	r.finish(sh.body, buf.Bytes(), keep)
	if err != nil {
		return r
	}
	if miss {
		c.shadow(req, sh.dataset, srv, mreq)
	}
	if c.d.cl != nil {
		c.routeKey(req, sh.dataset, sh.body)
	}
	return r
}

// shadow times the public pieces of a plan miss on a private lookup cache
// and rewriter copy.
func (c *chain) shadow(req int64, name string, srv *middleware.Server, mreq middleware.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rw := c.rws[name]
	if rw == nil {
		var err error
		if rw, err = c.d.rewriterCopy(name); err != nil {
			return
		}
		c.rws[name] = rw
	}
	ds := c.d.built[name]
	root := c.tr.newID()
	start := time.Now()
	var (
		q   *engine.Query
		qc  *core.QueryContext
		out core.Outcome
		res *engine.Result
		st  engine.ExecStats
		err error
	)
	c.tr.time("middleware.build_query", root, req, func() { q, err = srv.BuildQuery(mreq) })
	if err != nil {
		return
	}
	lookups := engine.NewLookupCache()
	space := core.HintOnlySpec()
	ds.DB.RLockData()
	cfg := core.DefaultContextConfig(space)
	cfg.Lookups = lookups
	c.tr.time("core.build_context", root, req, func() { qc, err = core.BuildContext(ds.DB, q, cfg) })
	if err != nil {
		ds.DB.RUnlockData()
		return
	}
	opts := len(core.EnumerateOptions(ds.DB, q, space)) + 1
	budget := mreq.BudgetMs
	if budget <= 0 {
		budget = trainBudgetMs
	}
	c.tr.time("core.rewrite", root, req, func() { out = rw.Rewrite(qc, budget) })
	rq, hint := q, engine.Hint{}
	if out.Option >= 0 {
		c.tr.time("core.build_rq", root, req, func() { rq, hint = core.BuildRQ(q, qc.Options[out.Option], qc.EstRows, qc.Scale) })
	}
	c.tr.time("engine.execute", root, req, func() { res, st, err = ds.DB.RunCachedYield(rq, hint, lookups, nil) })
	ds.DB.RUnlockData()
	if err != nil {
		return
	}
	region := mreq.Region
	if region.Area() <= 0 {
		region = ds.Extent
	}
	gw, gh := mreq.GridW, mreq.GridH
	if gw <= 0 {
		gw = 64
	}
	if gh <= 0 {
		gh = 64
	}
	c.tr.time("viz.bin", root, req, func() { viz.NewGrid(region, gw, gh).Counts(res.Points, res.Weight) })
	c.tr.add(root, 0, req, "shadow", start, time.Now())

	c.shadows++
	if rw.Agent.NumOpts != len(qc.Options) {
		c.fallbacks++
	}
	c.opts = append(c.opts, float64(opts))
	c.explored = append(c.explored, float64(out.Explored))
	if st.RowsOutput > 0 {
		c.examined = append(c.examined, float64(st.IndexEntries+st.RowsScanned+st.RowsFetched)/float64(st.RowsOutput))
	}
}

// routeKey times the routing-key computation the cluster router performs
// before forwarding a request: parse, resolve a ready replica server, derive
// the ResultKey, walk the ring. It runs after the request was answered, so
// it measures the warm-shape cost.
func (c *chain) routeKey(req int64, name string, body []byte) {
	c.tr.time("cluster.router.key", 0, req, func() {
		m, err := middleware.ParseRequest(body)
		if err != nil {
			return
		}
		if srv, ok := c.d.cl.Node(0).Gateway().ReadyServer(name); ok {
			if k, err := srv.ResultKeyFor(m); err == nil {
				c.d.cl.Ring().Sequence(k.Hash())
			}
		}
	})
}

// lockProbe times DB.RLockData on twitter at a fixed interval until stop
// closes: how long a reader waits for the data lock behind flushes.
func lockProbe(d *deployment, stop <-chan struct{}) []float64 {
	db := d.built["twitter"].DB
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var waits []float64
	for {
		select {
		case <-stop:
			return waits
		case <-tick.C:
			t0 := time.Now()
			db.RLockData()
			waits = append(waits, float64(time.Since(t0))/1e6)
			db.RUnlockData()
		}
	}
}

// perLayerMetrics lists every per-layer metric: its unit and whether higher
// is better. BENCHMARK.json carries the same list.
var perLayerMetrics = []struct {
	name, unit string
	higher     bool
}{
	{"workload.build_s", "s", false},
	{"harness.train_s", "s", false},
	{"middleware.warm_s", "s", false},
	{"loadgen.prime_s", "s", false},
	{"middleware.http_ms_p50", "ms", false},
	{"loadgen.transport_ms_p50", "ms", false},
	{"middleware.parse_us_p50", "us", false},
	{"middleware.plan_us_p50", "us", false},
	{"middleware.plan_ms_tail", "ms", false},
	{"middleware.handle_us_p50", "us", false},
	{"middleware.handle_ms_tail", "ms", false},
	{"middleware.encode_us_p50", "us", false},
	{"middleware.plancache.hit_ratio", "ratio", true},
	{"middleware.plancache.misses", "count", false},
	{"middleware.resultcache.hit_ratio", "ratio", true},
	{"middleware.admission.rejected", "count", false},
	{"middleware.subsume.hits", "count", true},
	{"middleware.flight.coalesced", "count", true},
	{"middleware.prefetch.issued", "count", true},
	{"middleware.prefetch.hits", "count", true},
	{"middleware.prefetch.shed", "count", false},
	{"middleware.prefetch.computed", "count", false},
	{"middleware.prefetch.hit_ratio", "ratio", true},
	{"core.build_context_ms_p50", "ms", false},
	{"core.build_context_ms_tail", "ms", false},
	{"core.options_executed", "count", false},
	{"core.truth_use_ratio", "ratio", true},
	{"core.rewrite_us_p50", "us", false},
	{"core.rewrite.explored_mean", "count", false},
	{"core.rewrite.plan_virtual_ms_mean", "ms", false},
	{"core.rewrite.fallback_share", "ratio", false},
	{"engine.execute_ms_p50", "ms", false},
	{"engine.execute_ms_tail", "ms", false},
	{"engine.examined_per_row", "ratio", false},
	{"viz.bin_us_p50", "us", false},
	{"engine.datalock.read_wait_ms_tail", "ms", false},
	{"engine.ingest.flush_ms_p50", "ms", false},
	{"engine.ingest.flush_ms_p95", "ms", false},
	{"engine.ingest.flushes", "count", false},
	{"engine.ingest.rows", "count", true},
	{"engine.wal.syncs_per_flush", "ratio", false},
	{"engine.wal.bytes_per_row", "B/row", false},
	{"cluster.router.hop_ms_p50", "ms", false},
	{"cluster.router.retries", "count", false},
	{"cluster.failovers", "count", false},
	{"cluster.peer.hits", "count", true},
	{"cluster.peer.misses", "count", false},
	{"cluster.peer.fills_dropped", "count", false},
	{"cluster.prefetch.dispatched", "count", true},
	{"cluster.prefetch.dropped", "count", false},
	{"loadgen.viz_tail_ms", "ms", false},
	{"loadgen.sat_rps", "1/s", true},
	{"loadgen.ingest_ack_tail_ms", "ms", false},
	{"loadgen.lag_ms_tail", "ms", false},
	{"trace.overhead_ratio", "ratio", false},
}

// perLayer computes the per-layer metrics of a traced window and of its
// untraced control, which ran the same phases. The returned
// notes name each metric this workload does not exercise, with the reason,
// and each metric measured other than its name suggests.
func perLayer(d *deployment, c *chain, w *window, spans []span, control *window) (map[string]float64, map[string]string) {
	m := make(map[string]float64)
	notes := make(map[string]string)
	m["workload.build_s"] = d.buildS
	m["harness.train_s"] = d.trainS
	m["middleware.warm_s"] = d.warmS
	m["loadgen.prime_s"] = d.primeS

	ms, us := time.Millisecond, time.Microsecond
	m["middleware.http_ms_p50"] = durations(spans, "server/viz", ms, false).p50()
	m["loadgen.transport_ms_p50"] = durations(spans, "client/viz", ms, true).p50()
	m["middleware.parse_us_p50"] = durations(spans, "middleware.parse", us, false).p50()
	m["middleware.plan_us_p50"] = durations(spans, "middleware.plan", us, false).p50()
	_, m["middleware.plan_ms_tail"] = durations(spans, "middleware.plan", ms, false).tail()
	m["middleware.handle_us_p50"] = durations(spans, "middleware.handle", us, false).p50()
	_, m["middleware.handle_ms_tail"] = durations(spans, "middleware.handle", ms, false).tail()
	m["middleware.encode_us_p50"] = durations(spans, "middleware.encode", us, false).p50()
	bc := durations(spans, "core.build_context", ms, false)
	m["core.build_context_ms_p50"] = bc.p50()
	_, m["core.build_context_ms_tail"] = bc.tail()
	m["core.rewrite_us_p50"] = durations(spans, "core.rewrite", us, false).p50()
	ex := durations(spans, "engine.execute", ms, false)
	m["engine.execute_ms_p50"] = ex.p50()
	_, m["engine.execute_ms_tail"] = ex.tail()
	m["viz.bin_us_p50"] = durations(spans, "viz.bin", us, false).p50()
	m["cluster.router.hop_ms_p50"] = durations(spans, "cluster.router.key", ms, false).p50()

	c.mu.Lock()
	m["core.options_executed"] = dist(c.opts).mean()
	m["core.truth_use_ratio"] = ratio(dist(c.explored).mean(), dist(c.opts).mean())
	m["core.rewrite.fallback_share"] = ratio(float64(c.fallbacks), float64(c.shadows))
	m["engine.examined_per_row"] = dist(c.examined).mean()
	shadows := c.shadows
	c.mu.Unlock()
	if shadows == 0 {
		for _, k := range []string{"core.build_context_ms_p50", "core.build_context_ms_tail", "core.options_executed", "core.truth_use_ratio",
			"core.rewrite_us_p50", "core.rewrite.fallback_share", "engine.execute_ms_p50", "engine.execute_ms_tail", "engine.examined_per_row", "viz.bin_us_p50"} {
			notes[k] = "not measured: no sampled plan miss, every shape was planned before the window"
		}
	}

	var explored, planMs []float64
	for _, r := range w.all() {
		if r.code == http.StatusOK {
			explored = append(explored, float64(r.trace.NumExplored))
			planMs = append(planMs, r.trace.PlanMs)
		}
	}
	m["core.rewrite.explored_mean"] = dist(explored).mean()
	m["core.rewrite.plan_virtual_ms_mean"] = dist(planMs).mean()

	var b, a middleware.MetricsSnapshot
	for i := range w.before {
		for _, s := range w.before[i].Datasets {
			b = addSnap(b, s)
		}
		for _, s := range w.after[i].Datasets {
			a = addSnap(a, s)
		}
	}
	planHits := float64(a.PlanHits+a.PlanCoalesced) - float64(b.PlanHits+b.PlanCoalesced)
	planMiss := float64(a.PlanMisses - b.PlanMisses)
	m["middleware.plancache.hit_ratio"] = ratio(planHits, planHits+planMiss)
	m["middleware.plancache.misses"] = planMiss
	resHits, resMiss := float64(a.ResultHits-b.ResultHits), float64(a.ResultMisses-b.ResultMisses)
	m["middleware.resultcache.hit_ratio"] = ratio(resHits, resHits+resMiss)
	m["middleware.admission.rejected"] = float64(a.RejectedBusy + a.RejectedWait - b.RejectedBusy - b.RejectedWait)
	m["middleware.subsume.hits"] = float64(a.SubsumedHits - b.SubsumedHits)
	m["middleware.flight.coalesced"] = float64(a.ExecCoalesced - b.ExecCoalesced)
	issued := float64(a.PrefetchIssued - b.PrefetchIssued)
	m["middleware.prefetch.issued"] = issued
	m["middleware.prefetch.hits"] = float64(a.PrefetchHits - b.PrefetchHits)
	m["middleware.prefetch.shed"] = float64(a.PrefetchShed - b.PrefetchShed)
	m["middleware.prefetch.computed"] = float64(a.PrefetchComputed - b.PrefetchComputed)
	m["middleware.prefetch.hit_ratio"] = ratio(m["middleware.prefetch.hits"], issued)
	flushes, rows := float64(a.IngestFlushes-b.IngestFlushes), float64(a.IngestRows-b.IngestRows)
	m["engine.ingest.flushes"] = flushes
	m["engine.ingest.rows"] = rows
	// Flush latencies come from the servers' own histograms; set-up never
	// ingests, so they cover the window alone.
	m["engine.ingest.flush_ms_p50"] = a.FlushP50Ms
	m["engine.ingest.flush_ms_p95"] = a.FlushP95Ms
	if d.wal != nil {
		m["engine.wal.syncs_per_flush"] = ratio(float64(w.walAfter.Syncs-w.walBefore.Syncs), flushes)
		if w.walAfter.Segments == w.walBefore.Segments {
			m["engine.wal.bytes_per_row"] = ratio(float64(w.walAfter.ActiveBytes-w.walBefore.ActiveBytes), rows)
		} else {
			notes["engine.wal.bytes_per_row"] = "not measured: the WAL rotated a segment inside the window"
		}
	} else {
		notes["engine.wal.syncs_per_flush"] = "not measured: no WAL, in-process replicas share one dataset, which maliva-server refuses to log"
		notes["engine.wal.bytes_per_row"] = notes["engine.wal.syncs_per_flush"]
	}
	_, m["engine.datalock.read_wait_ms_tail"] = newDist(w.lockWaitsMs).tail()

	if d.cl != nil {
		ca, cb := w.clAfter, w.clBefore
		m["cluster.router.retries"] = float64(ca.Retries - cb.Retries)
		m["cluster.prefetch.dispatched"] = float64(ca.PrefetchDispatched - cb.PrefetchDispatched)
		m["cluster.prefetch.dropped"] = float64(ca.PrefetchDropped - cb.PrefetchDropped)
		for i := range ca.Replicas {
			ra, rb := ca.Replicas[i], cb.Replicas[i]
			m["cluster.failovers"] += float64(ra.Failovers - rb.Failovers)
			m["cluster.peer.hits"] += float64(ra.Cache.PeerHits - rb.Cache.PeerHits)
			m["cluster.peer.misses"] += float64(ra.Cache.PeerMisses - rb.Cache.PeerMisses)
			m["cluster.peer.fills_dropped"] += float64(ra.Cache.FillsDropped - rb.Cache.FillsDropped)
		}
		notes["cluster.router.hop_ms_p50"] = "the router's routing-key computation replayed warm: the router calls each *cluster.Node directly, so no span can wrap the replica inside the hop"
	} else {
		for _, k := range []string{"cluster.router.hop_ms_p50", "cluster.router.retries", "cluster.failovers", "cluster.peer.hits",
			"cluster.peer.misses", "cluster.peer.fills_dropped", "cluster.prefetch.dispatched", "cluster.prefetch.dropped"} {
			notes[k] = "not measured: no cluster router in this deployment"
		}
	}
	if d.cfg.sessions == 0 {
		for _, k := range []string{"middleware.prefetch.issued", "middleware.prefetch.hits", "middleware.prefetch.shed", "middleware.prefetch.computed", "middleware.prefetch.hit_ratio"} {
			notes[k] = "not measured: no sessions, prefetch only follows session-tagged traffic"
		}
	}

	lags := make([]float64, 0, len(w.open))
	lat := make([]float64, 0, len(w.open))
	for _, r := range w.open {
		lags = append(lags, float64(r.start.Sub(r.due))/1e6)
		lat = append(lat, r.latencyMs())
	}
	_, m["loadgen.lag_ms_tail"] = newDist(lags).tail()
	untraced := make([]float64, len(control.open))
	for i, r := range control.open {
		untraced[i] = r.latencyMs()
	}
	ud := newDist(untraced)
	m["trace.overhead_ratio"] = ratio(newDist(lat).p50(), ud.p50())
	_, m["loadgen.viz_tail_ms"] = ud.tail()
	m["loadgen.sat_rps"] = control.satRPS()
	_, m["loadgen.ingest_ack_tail_ms"] = w.ackLatencies().tail()
	return m, notes
}

// addSnap sums the counters perLayer reads; flush quantiles keep the larger.
func addSnap(a, s middleware.MetricsSnapshot) middleware.MetricsSnapshot {
	a.PlanHits += s.PlanHits
	a.PlanCoalesced += s.PlanCoalesced
	a.PlanMisses += s.PlanMisses
	a.ResultHits += s.ResultHits
	a.ResultMisses += s.ResultMisses
	a.RejectedBusy += s.RejectedBusy
	a.RejectedWait += s.RejectedWait
	a.SubsumedHits += s.SubsumedHits
	a.ExecCoalesced += s.ExecCoalesced
	a.PrefetchIssued += s.PrefetchIssued
	a.PrefetchHits += s.PrefetchHits
	a.PrefetchShed += s.PrefetchShed
	a.PrefetchComputed += s.PrefetchComputed
	a.IngestFlushes += s.IngestFlushes
	a.IngestRows += s.IngestRows
	a.FlushP50Ms = max(a.FlushP50Ms, s.FlushP50Ms)
	a.FlushP95Ms = max(a.FlushP95Ms, s.FlushP95Ms)
	return a
}
