package main

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/maliva/maliva/internal/workload"
)

// smallDatasets builds the benchmark's datasets at test size.
func smallDatasets(t *testing.T) map[string]*workload.Dataset {
	t.Helper()
	built := make(map[string]*workload.Dataset)
	for _, name := range []string{"twitter", "taxi"} {
		build, err := workload.StandardBuilder(name, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if built[name], err = build(); err != nil {
			t.Fatal(err)
		}
	}
	return built
}

// requestBytes renders every /viz and /ingest body a run of the workload
// would send, in order, for the first n requests of each phase.
func requestBytes(t *testing.T, c config, seed int64, built map[string]*workload.Dataset, n int) []byte {
	t.Helper()
	in, err := makeInputs(c, seed, 2, built)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	switch {
	case len(in.sessions) > 0:
		for i := 0; i < n; i++ {
			s := in.sessions[i%len(in.sessions)]
			out.Write(s.body())
			s.step()
		}
	case len(in.pool) > 0:
		for _, idx := range in.openSeq[:min(n, len(in.openSeq))] {
			out.Write(in.pool[idx].body)
		}
		for _, idx := range in.satSeq[:n] {
			out.Write(in.pool[idx].body)
		}
	default:
		for i := 0; i < n; i++ {
			sh := in.fresh.get(i)
			fmt.Fprintf(&out, "%s:%s", sh.dataset, sh.body)
		}
	}
	for _, b := range append(append(in.writer, in.stale...), in.probe...) {
		out.Write(b)
	}
	return out.Bytes()
}

func TestSameSeedSameRequestBytes(t *testing.T) {
	built := smallDatasets(t)
	for _, name := range workloadNames() {
		c := workloads[name]
		a := requestBytes(t, c, 7, built, 300)
		b := requestBytes(t, c, 7, built, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different request sequences", name)
		}
		if other := requestBytes(t, c, 8, built, 300); bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 produced the same request sequence", name)
		}
	}
}

func TestColdShapesNeverRepeat(t *testing.T) {
	built := smallDatasets(t)
	src := &freshSource{seed: 3, built: built, share: twitterShare}
	seen := make(map[string]bool)
	twitter := 0
	const n = 2000
	for i := 0; i < n; i++ {
		sh := src.get(i)
		k := sh.dataset + string(sh.body)
		if seen[k] {
			t.Fatalf("shape %d repeats an earlier one: %s", i, sh.body)
		}
		seen[k] = true
		if sh.dataset == "twitter" {
			twitter++
		}
	}
	if share := float64(twitter) / n; share < 0.7 || share > 0.8 {
		t.Errorf("twitter share %.3f, want about 0.75", share)
	}
}
