package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// smoke shrinks a workload to test size: small datasets and agents, one
// set-up, low rates.
func smoke(c config) config {
	c.rows, c.queries, c.setupReps = 4000, 30, 1
	c.rate = min(c.rate, 100)
	c.ackProbe = min(c.ackProbe, 20)
	c.sessions = min(c.sessions, 4)
	return c
}

func TestEachWorkloadCompletesAtSmokeSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and trains a deployment per workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			c := smoke(workloads[name])
			rep, err := run(c, 1, 1, traced, io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s (traced %v): correct %v, attempted %d, failed %d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := len(endToEndUnits)
			if traced {
				want = len(perLayerMetrics)
			}
			if len(rep.Metrics) != want {
				t.Errorf("%s (traced %v): %d metrics, want %d", name, traced, len(rep.Metrics), want)
			}
		}
	}
}

// e2eBetter is the improving direction of each end-to-end metric.
var e2eBetter = map[string]string{
	"setup_s": "lower", "viz_p50_ms": "lower", "slo_rate": "higher", "vqp": "higher", "aqrt_virtual_ms": "lower",
	"ok_rate": "higher", "ingest_ack_p50_ms": "lower", "peak_rss_mb": "lower",
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics the
// benchmark prints in step: same names, units and directions.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []entry
	for _, e := range endToEndUnits {
		e2e = append(e2e, entry{e.name, e.unit, e2eBetter[e.name]})
	}
	for _, p := range perLayerMetrics {
		better := "lower"
		if p.higher {
			better = "higher"
		}
		layers = append(layers, entry{p.name, p.unit, better})
	}
	if !reflect.DeepEqual(doc.EndToEnd, e2e) {
		t.Errorf("end_to_end = %v, the benchmark prints %v", doc.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(doc.PerLayer, layers) {
		t.Errorf("per_layer = %v, the benchmark prints %v", doc.PerLayer, layers)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
}
