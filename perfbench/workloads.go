package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/maliva/maliva/internal/cluster"
	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/workload"
)

// config is one workload: its deployment and its traffic. BENCHMARK.json
// repeats each workload's rate, sizes, budget mix and fsync policy in its
// "why". Sizes are fields so the tests can shrink them.
type config struct {
	name      string
	datasets  []string
	rows      int // stored rows per dataset
	queries   int // per-dataset training workload (maliva-server -queries)
	setupReps int // deployments built per run; setup_s is their median

	rate     float64 // open-loop /viz per second (0: session replay)
	pool     int     // hot tile pool size (0: every request is a fresh shape)
	replicas int     // > 1: a cluster router over this many gateway replicas
	sessions int     // session replay: concurrent users
	writerHz float64 // sync /ingest batches per second during the read phases
	ackProbe int     // sync /ingest batches sent back to back after the read phases

	traceEvery int // traced run: every k-th request runs the in-process chain
}

// The traffic constants every workload shares.
const (
	openShare    = 0.75                   // share of a run in the open-loop phase; the rest measures capacity
	zipfS        = 1.2                    // popularity skew over a hot pool
	twitterShare = 0.75                   // fresh shapes on twitter; the rest on taxi
	think        = 100 * time.Millisecond // session replay: pause after each answer
	ingestRows   = 64                     // rows per /ingest batch
	checkSample  = 64                     // open-loop responses compared with the reference
)

// durable reports whether the deployment attaches a WAL (fsync=always) to
// twitter: one gateway does; in-process replicas share one dataset, which
// maliva-server refuses to log.
func (c config) durable() bool { return c.replicas <= 1 }

// workloads are the benchmark's traffic mixes. Rates are fixed here, not
// derived from the machine, so two commits are driven identically.
var workloads = map[string]config{
	"hot-pan": {
		name: "hot-pan", datasets: []string{"twitter"}, rows: 60_000, queries: 100, setupReps: 3,
		rate: 2000, pool: 64, ackProbe: 400, traceEvery: 16,
	},
	"cold-explore": {
		name: "cold-explore", datasets: []string{"twitter", "taxi"}, rows: 60_000, queries: 100, setupReps: 3,
		rate: 60, ackProbe: 400, traceEvery: 4,
	},
	"write-mix": {
		name: "write-mix", datasets: []string{"twitter"}, rows: 60_000, queries: 100, setupReps: 3,
		rate: 90, pool: 64, writerHz: 10, traceEvery: 4,
	},
	"session-cluster": {
		name: "session-cluster", datasets: []string{"twitter"}, rows: 60_000, queries: 100, setupReps: 3,
		replicas: 2, sessions: 8, ackProbe: 400, traceEvery: 4,
	},
}

// inputs are a run's generated requests; the same seed gives the same bytes.
type inputs struct {
	pool     []shape
	openSeq  []int32 // hot: pool indices of the open-loop phase
	satSeq   []int32 // hot: pool indices of the capacity phase
	fresh    *freshSource
	sessions []*session
	// Sync /ingest bodies: the write-mix writer's, the stale-read check's,
	// and the ack probe's.
	writer, stale, probe [][]byte
}

// freshSource hands out never-seen shapes by request index, generating in
// index order so the sequence depends on the seed alone.
type freshSource struct {
	mu     sync.Mutex
	seed   int64
	built  map[string]*workload.Dataset
	share  float64
	shapes []shape
}

func (f *freshSource) get(i int) shape {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.shapes) <= i {
		// Generate in blocks from per-block seeds; a block never repeats a
		// shape, and blocks draw from disjoint continuous viewport streams.
		block := coldShapes(f.seed*7919+int64(len(f.shapes)), f.built, 256, f.share)
		f.shapes = append(f.shapes, block...)
	}
	return f.shapes[i]
}

// openCount is the number of open-loop requests a run of seconds sends.
func (c config) openCount(seconds float64) int {
	return int(c.rate * seconds * openShare)
}

// phaseDurations splits a run into its open-loop and capacity phases.
func (c config) phaseDurations(seconds float64) (open, sat time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	open = time.Duration(float64(total) * openShare)
	return open, total - open
}

// makeInputs generates every request of a run from the seed.
func makeInputs(c config, seed int64, seconds float64, built map[string]*workload.Dataset) (*inputs, error) {
	in := &inputs{}
	switch {
	case c.sessions > 0:
		in.sessions = newSessions(seed, "twitter", built["twitter"], c.sessions)
		for _, s := range in.sessions {
			in.pool = append(in.pool, s.lattice()...)
		}
	case c.pool > 0:
		in.pool = hotPool("twitter", built["twitter"], c.pool)
		in.openSeq = zipfSequence(seed, c.pool, c.openCount(seconds), zipfS)
		// The capacity phase draws from its own stream; 50k draws outlast
		// any closed-loop phase this benchmark runs.
		in.satSeq = zipfSequence(seed+1, c.pool, 50_000, zipfS)
	default:
		in.fresh = &freshSource{seed: seed, built: built, share: twitterShare}
	}
	nWriter, nStale := 0, 0
	if c.writerHz > 0 {
		// Room for a capacity phase that overruns its deadline by a second.
		nWriter, nStale = int(c.writerHz*(seconds+1)), staleRounds
	}
	bodies, err := ingestBodies(seed, built["twitter"], nWriter+nStale+c.ackProbe, ingestRows)
	if err != nil {
		return nil, err
	}
	in.writer, in.stale, in.probe = bodies[:nWriter], bodies[nWriter:nWriter+nStale], bodies[nWriter+nStale:]
	return in, nil
}

// prime sends every pool tile (for sessions, every tile their walks can
// reach) once, so the measured window starts with warm plan and result
// caches.
func prime(d *deployment, in *inputs) error {
	if len(in.pool) == 0 {
		return nil
	}
	t0 := time.Now()
	l := newLoader(d.url, runtime.NumCPU(), nil)
	defer l.close()
	err := core.RunIndexed(len(in.pool), runtime.NumCPU(), func(i int) error {
		if r := l.viz(in.pool[i], "", time.Now(), false); r.code != http.StatusOK {
			return fmt.Errorf("priming %s: status %d", in.pool[i].dataset, r.code)
		}
		return nil
	})
	d.primeS = time.Since(t0).Seconds()
	return err
}

// window is everything one measured run of a deployment observed.
type window struct {
	open, sat       []result
	openDur, satDur time.Duration
	satStart        time.Time
	peakRSSMB       float64 // through set-up and the open-loop phase
	writerAcks      []ack   // write-mix: the writer's, beside both read phases
	probeAcks       []ack   // the ack probe's and the stale-read check's
	ackedRows       int
	before, after   []middleware.GatewayMetricsSnapshot
	clBefore        cluster.Snapshot
	clAfter         cluster.Snapshot
	walBefore       engine.WALStats
	walAfter        engine.WALStats
	lockWaitsMs     []float64
}

// sender issues one /viz request of the run; traced runs substitute the
// in-process chain for a sample of them.
type sender func(i int, sh shape, sid string, due time.Time, keep bool) result

// measure drives the deployment through the workload's phases.
func measure(c config, d *deployment, in *inputs, seconds float64, send sender, l *loader) *window {
	w := &window{}
	workers := runtime.NumCPU()
	openDur, satDur := c.phaseDurations(seconds)
	w.before = snapshots(d)
	if d.cl != nil {
		w.clBefore = d.cl.Snapshot()
	}
	if d.wal != nil {
		w.walBefore = d.wal.Stats()
	}

	// The write-mix writer runs beside both read phases: sync batches due
	// at a fixed rate, acked latency timed from each batch's due time.
	var writerWG sync.WaitGroup
	stopWriter := make(chan struct{})
	if c.writerHz > 0 {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			interval := time.Duration(float64(time.Second) / c.writerHz)
			start := time.Now()
			for i := 0; i < len(in.writer); i++ {
				due := start.Add(time.Duration(i) * interval)
				select {
				case <-stopWriter:
					return
				default:
				}
				sleepUntil(due)
				w.writerAcks = append(w.writerAcks, l.ingest("twitter", in.writer[i], ingestRows, due))
			}
		}()
	}

	switch {
	case c.sessions > 0:
		// Drain replica 1 at a third of the window and rejoin it at two
		// thirds: the failover path runs inside the measured window.
		events := time.AfterFunc(openDur/3, func() { d.cl.Drain(1) })
		rejoin := time.AfterFunc(2*openDur/3, func() { d.cl.Rejoin(1) })
		i := 0
		var mu sync.Mutex
		do := func(s *session, due time.Time) result {
			mu.Lock()
			k := i
			i++
			mu.Unlock()
			return send(k, shape{dataset: s.name, body: s.body()}, s.id, due, true)
		}
		w.open, w.openDur = sessionLoop(workers, in.sessions, think, openDur, do)
		events.Stop()
		rejoin.Stop()
		d.cl.Rejoin(1)
		w.peakRSSMB = peakRSSMB()
		w.satStart = time.Now()
		w.sat, w.satDur = sessionLoop(workers, in.sessions, 0, satDur, do)
	case c.pool > 0:
		every := max(1, len(in.openSeq)/checkSample)
		w.open, w.openDur = openLoop(len(in.openSeq), time.Duration(float64(time.Second)/c.rate), workers, func(i int, due time.Time) result {
			return send(i, in.pool[in.openSeq[i]], "", due, i%every == 0)
		})
		w.peakRSSMB = peakRSSMB()
		w.satStart = time.Now()
		w.sat, w.satDur = closedLoop(workers, satDur, func(i int, due time.Time) result {
			return send(len(in.openSeq)+i, in.pool[in.satSeq[i%len(in.satSeq)]], "", due, false)
		})
	default:
		n := c.openCount(seconds)
		every := max(1, n/checkSample)
		w.open, w.openDur = openLoop(n, time.Duration(float64(time.Second)/c.rate), workers, func(i int, due time.Time) result {
			return send(i, in.fresh.get(i), "", due, i%every == 0)
		})
		w.peakRSSMB = peakRSSMB()
		w.satStart = time.Now()
		w.sat, w.satDur = closedLoop(workers, satDur, func(i int, due time.Time) result {
			return send(n+i, in.fresh.get(n+i), "", due, false)
		})
	}
	close(stopWriter)
	writerWG.Wait()
	for _, a := range w.writerAcks {
		if a.ok {
			w.ackedRows += a.rows
		}
	}
	return w
}

// ackProbe sends the workload's back-to-back sync batches after the read
// phases, so ingest ack latency is measured on every deployment.
func ackProbe(c config, in *inputs, l *loader, w *window) {
	for _, body := range in.probe {
		a := l.ingest("twitter", body, ingestRows, time.Now())
		w.probeAcks = append(w.probeAcks, a)
		if a.ok {
			w.ackedRows += a.rows
		}
	}
}

// finishWindow records the closing snapshots.
func finishWindow(d *deployment, w *window) {
	w.after = snapshots(d)
	if d.cl != nil {
		w.clAfter = d.cl.Snapshot()
	}
	if d.wal != nil {
		w.walAfter = d.wal.Stats()
	}
}

func snapshots(d *deployment) []middleware.GatewayMetricsSnapshot {
	var out []middleware.GatewayMetricsSnapshot
	for _, g := range d.gateways() {
		out = append(out, g.Snapshot())
	}
	return out
}

// all returns both phases' results.
func (w *window) all() []result { return append(append([]result(nil), w.open...), w.sat...) }

// endToEnd computes the user-facing metrics of an untraced window.
func endToEnd(w *window, setupS []float64) map[string]float64 {
	m := make(map[string]float64)
	m["setup_s"] = median(setupS)

	lat := make([]float64, len(w.open))
	slo := 0
	for i, r := range w.open {
		lat[i] = r.latencyMs()
		if r.code == http.StatusOK && lat[i] <= sloMs {
			slo++
		}
	}
	m["viz_p50_ms"] = median(lat)
	m["slo_rate"] = ratio(float64(slo), float64(len(w.open)))

	all := w.all()
	ok, viable, total := 0, 0, 0.0
	for _, r := range all {
		if r.code != http.StatusOK {
			continue
		}
		ok++
		total += r.trace.TotalMs
		if r.trace.Viable {
			viable++
		}
	}
	m["vqp"] = ratio(float64(viable), float64(len(all)))
	m["aqrt_virtual_ms"] = ratio(total, float64(ok))
	m["ok_rate"] = ratio(float64(ok), float64(len(all)))
	m["ingest_ack_p50_ms"] = w.ackLatencies().p50()
	// Peak memory is read at the end of the open-loop phase: the capacity
	// phase's garbage, and so its peak, grows with however fast the host
	// runs it, and the correctness gates build a reference server of their own.
	m["peak_rss_mb"] = w.peakRSSMB
	return m
}

// satRPS is the capacity phase's 200s per second.
func (w *window) satRPS() float64 {
	ok := 0
	for _, r := range w.sat {
		if r.code == http.StatusOK {
			ok++
		}
	}
	return ratio(float64(ok), w.satDur.Seconds())
}

// ackLatencies are the acks the ingest ack metrics read: the writer's during
// the open-loop phase, where the read load beside them is fixed, or else the
// ack probe's. A failed ack is charged the client timeout.
func (w *window) ackLatencies() dist {
	acks := w.probeAcks
	if len(w.writerAcks) > 0 {
		acks = nil
		for _, a := range w.writerAcks {
			if a.due.Before(w.satStart) {
				acks = append(acks, a)
			}
		}
	}
	v := make([]float64, len(acks))
	for i, a := range acks {
		v[i] = a.latencyMs
		if !a.ok {
			v[i] = float64(clientTimeout) / 1e6
		}
	}
	return newDist(v)
}

// sloMs is the direct-manipulation latency limit for pan/zoom answers.
const sloMs = 100

// counts returns attempted and failed operations of a window.
func (w *window) counts() (attempted, failed int) {
	for _, r := range w.all() {
		attempted++
		if r.code != http.StatusOK {
			failed++
		}
	}
	for _, a := range append(append([]ack(nil), w.writerAcks...), w.probeAcks...) {
		attempted++
		if !a.ok {
			failed++
		}
	}
	return attempted, failed
}

// tailNote states the sample counts behind the percentile metrics.
func tailNote(w *window) string {
	return fmt.Sprintf("%d open-loop requests, %d closed-loop requests, %d acks in the ack metrics",
		len(w.open), len(w.sat), len(w.ackLatencies()))
}
