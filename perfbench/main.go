// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed against an in-process Maliva deployment — the
// gateway (or a two-replica cluster router) over HintOnlySpec with an MDP
// agent per dataset, trained at start-up as maliva-server -rewriter mdp
// does — checks the answers, and prints its metrics as one JSON line.
//
//	perfbench --workload hot-pan --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 replays the same
// seeded traffic on a fresh deployment with spans around the benchmark's
// calls into each layer, prints the per-layer metrics, and writes the spans
// and a self-time table under .bench_build/trace/. A failed correctness
// gate exits non-zero. Run it through run.sh, which builds it from source.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits lists every end-to-end metric and its unit.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"viz_p50_ms", "ms"},
	{"slo_rate", "ratio"},
	{"vqp", "ratio"},
	{"aqrt_virtual_ms", "ms"},
	{"ok_rate", "ratio"},
	{"ingest_ack_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// buildDir holds everything a run writes: WALs while it runs, trace files
// after it.
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	cfg, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep, err := run(cfg, *seed, *seconds, *trace == 1, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// errGate marks a failed correctness gate.
var errGate = errors.New("correctness gate failed")

// run executes one workload run and returns its result line. The machine
// stamp goes to out, ahead of the result; progress and the human-readable
// table go to log.
func run(c config, seed int64, seconds float64, traced bool, out, log io.Writer) (*report, error) {
	base, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	mach := stampMachine(base)
	stamp, _ := json.Marshal(map[string]any{"machine": mach, "workload": c.name, "seed": seed, "seconds": seconds, "trace": traced})
	fmt.Fprintln(out, string(stamp))

	// Set up several deployments and report the median set-up time; keep
	// the last one (a traced run keeps two: an untraced control and the
	// traced deployment).
	kept := 1
	if traced {
		kept = 2
	}
	reps := max(c.setupReps, kept)
	var setups []float64
	var deps []*deployment
	closeAll := func() {
		for _, d := range deps {
			if err := d.close(); err != nil {
				fmt.Fprintln(log, "perfbench: close:", err)
			}
		}
		deps = nil
	}
	defer closeAll()
	for k := 0; k < reps; k++ {
		var tr *tracer
		if traced && k == reps-1 {
			tr = newTracer()
		}
		d, err := newDeployment(c, filepath.Join(base, fmt.Sprintf("wal%d", k)), tr)
		if err != nil {
			return nil, err
		}
		in, err := makeInputs(c, seed, seconds, d.built)
		if err != nil {
			d.close()
			return nil, err
		}
		if err := prime(d, in); err != nil {
			d.close()
			return nil, err
		}
		setups = append(setups, d.totalS+d.primeS)
		if k < reps-kept {
			if err := d.close(); err != nil {
				return nil, err
			}
			runtime.GC()
			continue
		}
		deps = append(deps, d)
	}
	fmt.Fprintf(log, "setup: %d deployments, %s s each\n", reps, fmtList(setups))

	rep := &report{Correct: true, Metrics: make(map[string]metric)}
	workers := runtime.NumCPU()
	var control *window // the untraced control's window
	if traced {
		u := deps[0]
		in, err := makeInputs(c, seed, seconds, u.built)
		if err != nil {
			return nil, err
		}
		l := newLoader(u.url, workers, nil)
		runtime.GC()
		control = measure(c, u, in, seconds, func(i int, sh shape, sid string, due time.Time, keep bool) result {
			return l.viz(sh, sid, due, keep)
		}, l)
		l.close()
		if err := u.close(); err != nil {
			return nil, err
		}
		deps = deps[1:]
	}

	d := deps[0]
	in, err := makeInputs(c, seed, seconds, d.built)
	if err != nil {
		return nil, err
	}
	startRows := tableRows(d)
	l := newLoader(d.url, workers, d.tracer)
	defer l.close()
	var send sender = func(i int, sh shape, sid string, due time.Time, keep bool) result {
		return l.viz(sh, sid, due, keep)
	}
	var ch *chain
	stopProbe := make(chan struct{})
	probeDone := make(chan []float64, 1)
	if traced {
		d.tracer.reset()
		ch = newChain(d, l, c.traceEvery, in.pool)
		send = ch.send
		go func() { probeDone <- lockProbe(d, stopProbe) }()
	}
	// Start the window on a collected heap, so set-up garbage is not
	// charged to the first requests.
	runtime.GC()
	w := measure(c, d, in, seconds, send, l)

	gateErr := gates(c, d, in, l, w, startRows, log)
	if traced {
		close(stopProbe)
		w.lockWaitsMs = <-probeDone
	}
	if gateErr != nil {
		fmt.Fprintln(log, "perfbench: GATE FAILED:", gateErr)
		rep.Correct = false
	}
	rep.Attempted, rep.Failed = w.counts()
	fmt.Fprintf(log, "attempted %d, failed %d, fail_rate %.6f; %s\n", rep.Attempted, rep.Failed, ratio(float64(rep.Failed), float64(rep.Attempted)), tailNote(w))

	if !traced {
		m := endToEnd(w, setups)
		for _, e := range endToEndUnits {
			rep.Metrics[e.name] = metric{Value: m[e.name], Unit: e.unit}
			fmt.Fprintf(log, "  %-22s %14.4f %s\n", e.name, m[e.name], e.unit)
		}
		return rep, nil
	}

	spans := d.tracer.snapshot()
	m, notes := perLayer(d, ch, w, spans, control)
	for _, p := range perLayerMetrics {
		rep.Metrics[p.name] = metric{Value: m[p.name], Unit: p.unit}
		note := ""
		if n, ok := notes[p.name]; ok {
			note = "  (" + n + ")"
		}
		fmt.Fprintf(log, "  %-36s %14.4f %-6s%s\n", p.name, m[p.name], p.unit, note)
	}
	layers := layerTable(spans)
	fmt.Fprintf(log, "  %-24s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_p50_us")
	for _, r := range layers {
		fmt.Fprintf(log, "  %-24s %8d %12.2f %12.2f %12.1f\n", r.Name, r.Count, r.TotalMs, r.SelfMs, r.SelfP50Us)
	}
	path, err := writeTrace(c.name, seed, mach, rep, notes, layers, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(log, "spans written to", path)
	return rep, nil
}

// gates runs the workload's correctness checks and, outside write-mix, the
// ack probe; it records the closing snapshots before the row check.
func gates(c config, d *deployment, in *inputs, l *loader, w *window, startRows int, log io.Writer) error {
	rc, err := newRefCache(d)
	if err != nil {
		return err
	}
	defer rc.close()
	var gateErr error
	if c.writerHz > 0 {
		n, err := checkStale(rc, c, in, l, w)
		fmt.Fprintf(log, "stale-read check: %d post-flush responses identical to the reference\n", n)
		gateErr = err
	} else {
		n, err := checkSampled(rc, w)
		fmt.Fprintf(log, "reference check: %d responses byte-identical to the uncached reference\n", n)
		gateErr = err
	}
	// Probe on a collected heap: the reference server just built is garbage,
	// and collecting it in the middle of the probe slowed some acks and not
	// others, which moved the median from run to run.
	runtime.GC()
	ackProbe(c, in, l, w)
	finishWindow(d, w)
	if err := checkRows(d, startRows, w); err != nil && gateErr == nil {
		gateErr = err
	}
	if gateErr != nil {
		return fmt.Errorf("%w: %v", errGate, gateErr)
	}
	return nil
}

// writeTrace writes the traced run's spans and layer table.
func writeTrace(name string, seed int64, mach machine, rep *report, notes map[string]string, layers []layerRow, spans []span) (string, error) {
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	data, err := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "machine": mach,
		"metrics": rep.Metrics, "not_measured": notes, "layers": layers, "spans": spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ", ")
}
