package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/maliva/maliva/internal/cluster"
	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/harness"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/qte"
	"github.com/maliva/maliva/internal/workload"
)

// trainBudgetMs is the budget the per-dataset agents train at
// (maliva-server's -budget default); requests still carry their own.
const trainBudgetMs = 500

// deployment is one in-process serving stack under test: the gateway (or a
// cluster router over gateway replicas) over HintOnlySpec with an MDP agent
// per dataset, listening on a loopback port.
type deployment struct {
	cfg    config
	built  map[string]*workload.Dataset
	agents map[string][]byte // trained policy per dataset, serialized
	gw     *middleware.Gateway
	cl     *cluster.Cluster
	wal    *engine.WAL
	walDir string
	tracer *tracer // nil: the untraced deployment
	hs     *http.Server
	url    string

	buildS, trainS, warmS, primeS, totalS float64

	mu sync.Mutex // guards agents and trainS while Warm trains in parallel
}

// newDeployment builds datasets, trains agents, warms the serving stack and
// starts listening. dir holds the WAL when the workload attaches one. A
// non-nil tracer wraps the served handler with a span per request.
func newDeployment(cfg config, dir string, tr *tracer) (*deployment, error) {
	t0 := time.Now()
	d := &deployment{cfg: cfg, built: make(map[string]*workload.Dataset), agents: make(map[string][]byte), tracer: tr}
	for _, name := range cfg.datasets {
		build, err := workload.StandardBuilder(name, cfg.rows)
		if err != nil {
			return nil, err
		}
		ds, err := build()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		d.built[name] = ds
	}
	d.buildS = time.Since(t0).Seconds()

	if cfg.durable() {
		// The WAL belongs to the twitter table, like maliva-server -wal-dir
		// with the server's default fsync policy.
		d.walDir = dir
		tw := d.built["twitter"]
		w, _, err := tw.DB.AttachWAL(tw.Main, filepath.Join(dir, "twitter"), engine.WALConfig{Policy: engine.FsyncAlways})
		if err != nil {
			return nil, fmt.Errorf("attach WAL: %w", err)
		}
		d.wal = w
	}

	scfg := middleware.ServerConfig{DefaultBudgetMs: trainBudgetMs}
	t1 := time.Now()
	var handler http.Handler
	if cfg.replicas > 1 {
		cl, err := cluster.New(cluster.Config{
			Replicas: cfg.replicas,
			Names:    cfg.datasets,
			Datasets: d.built,
			Factory:  d.train,
			Server:   scfg,
			Space:    core.HintOnlySpec(),
		})
		if err != nil {
			return nil, err
		}
		d.cl = cl
		if err := cl.Warm(); err != nil {
			d.close()
			return nil, err
		}
		handler = cl.Handler()
	} else {
		reg := workload.NewRegistry()
		for _, name := range cfg.datasets {
			ds := d.built[name]
			if err := reg.Register(name, func() (*workload.Dataset, error) { return ds, nil }); err != nil {
				return nil, err
			}
		}
		gw, err := middleware.NewGateway(reg, d.train, middleware.GatewayConfig{Server: scfg, Space: core.HintOnlySpec()})
		if err != nil {
			return nil, err
		}
		d.gw = gw
		if err := gw.Warm(); err != nil {
			d.close()
			return nil, err
		}
		handler = gw.Handler()
	}
	d.warmS = time.Since(t1).Seconds()

	if tr != nil {
		handler = tr.wrap("server", handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.hs = &http.Server{Handler: handler}
	go func() { _ = d.hs.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	d.totalS = time.Since(t0).Seconds()
	return d, nil
}

// train is the per-dataset rewriter factory: the same lab build and agent
// training maliva-server -rewriter mdp runs at start-up, at the workload's
// training size.
func (d *deployment) train(name string, ds *workload.Dataset) (core.Rewriter, error) {
	t0 := time.Now()
	lab, err := harness.BuildLab(ds, harness.LabConfig{
		NumQueries: d.cfg.queries,
		QuerySpec:  workload.QuerySpec{NumPreds: 3, Seed: 5},
		Space:      core.HintOnlySpec(),
		Budget:     trainBudgetMs,
		Seed:       9,
	})
	if err != nil {
		return nil, err
	}
	est := qte.NewAccurateQTE()
	agent, _ := lab.TrainAgent(harness.TrainAgentConfig{Agent: core.DefaultAgentConfig(), QTE: est, Seeds: []int64{7}})
	snap, err := agent.MarshalJSON()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.agents[name] = snap
	d.trainS += time.Since(t0).Seconds()
	d.mu.Unlock()
	return &core.MDPRewriter{Agent: agent, QTE: est, Tag: "Accurate-QTE"}, nil
}

// rewriterCopy returns an independent rewriter with the trained policy of
// one dataset: rewriters are not safe for concurrent use, so the reference
// server and the trace's shadow calls each get their own.
func (d *deployment) rewriterCopy(name string) (*core.MDPRewriter, error) {
	d.mu.Lock()
	snap := d.agents[name]
	d.mu.Unlock()
	a, err := core.LoadAgent(snap, core.DefaultAgentConfig())
	if err != nil {
		return nil, err
	}
	return &core.MDPRewriter{Agent: a, QTE: qte.NewAccurateQTE(), Tag: "Accurate-QTE"}, nil
}

// reference builds an uncached server over the same data and policy: the
// oracle every sampled response is compared with byte for byte.
func (d *deployment) reference(name string) (*middleware.Server, error) {
	rw, err := d.rewriterCopy(name)
	if err != nil {
		return nil, err
	}
	return middleware.NewServerWithConfig(d.built[name], rw, core.HintOnlySpec(), middleware.ServerConfig{
		DefaultBudgetMs: trainBudgetMs,
		PlanCacheSize:   -1,
		ResultCacheSize: -1,
		MaxConcurrent:   -1,
	})
}

// server returns the ready dataset server serving requests: the gateway's,
// or the first replica's in a cluster.
func (d *deployment) server(name string) (*middleware.Server, error) {
	if d.cl != nil {
		return d.cl.Node(0).Gateway().Server(name)
	}
	return d.gw.Server(name)
}

// gateways lists every gateway in the deployment.
func (d *deployment) gateways() []*middleware.Gateway {
	if d.cl == nil {
		return []*middleware.Gateway{d.gw}
	}
	var out []*middleware.Gateway
	for _, n := range d.cl.Nodes() {
		out = append(out, n.Gateway())
	}
	return out
}

// close stops the listener, the cluster's background workers and the
// gateways (flushing ingest buffers), then syncs and closes the WAL.
func (d *deployment) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if d.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		keep(d.hs.Shutdown(ctx))
		cancel()
	}
	if d.cl != nil {
		d.cl.Close()
	}
	for _, g := range d.gateways() {
		if g != nil {
			keep(g.Close())
		}
	}
	if d.wal != nil {
		keep(d.wal.Close())
	}
	if d.walDir != "" {
		keep(os.RemoveAll(d.walDir))
	}
	return first
}
