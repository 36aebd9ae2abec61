package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"github.com/maliva/maliva/internal/workload"
)

// budgetsMs is the per-request time-budget mix, in virtual (cost-model) ms.
var budgetsMs = []float64{500, 1000, 2000}

// Fixed seeds for the parts of a workload that define it rather than vary
// between runs: the dashboard's tile pool and the sessions' subjects. The
// run seed drives everything sampled from them (arrival order, Zipf draws,
// pan/zoom walks, fresh cold shapes, ingested rows), so runs with different
// seeds measure the same system on the same kind of traffic.
const (
	hotPoolSeed = 1
	sessionSeed = 2
)

// shape is one generated /viz request: the dataset it targets and the exact
// body bytes the program receives.
type shape struct {
	dataset string
	body    []byte
}

// encode renders a request map; map keys marshal sorted, so equal requests
// give equal bytes.
func encode(req map[string]any) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // only plain strings and numbers go in
	}
	return b
}

// tileShape draws one heatmap request over a dataset's domain: a popular
// keyword when the dataset has text, a 7–60 day window, and a viewport at
// zoom 0–3 placed anywhere in the extent.
func tileShape(rng *rand.Rand, name string, ds *workload.Dataset, budget float64) shape {
	req := map[string]any{"kind": "heatmap", "grid_w": 32, "grid_h": 16, "budget_ms": budget}
	if name == "twitter" {
		req["keyword"] = fmt.Sprintf("word%04d", rng.Intn(60))
	}
	days := 7 + rng.Intn(53)
	start := ds.TimeOrigin.AddDate(0, 0, rng.Intn(ds.TimeSpanDays-days))
	req["from"] = start.Format(time.RFC3339)
	req["to"] = start.AddDate(0, 0, days).Format(time.RFC3339)
	ext := ds.Extent
	z := rng.Intn(4)
	w := (ext.MaxLon - ext.MinLon) / float64(int(1)<<z)
	h := (ext.MaxLat - ext.MinLat) / float64(int(1)<<z)
	minLon := ext.MinLon + rng.Float64()*(ext.MaxLon-ext.MinLon-w)
	minLat := ext.MinLat + rng.Float64()*(ext.MaxLat-ext.MinLat-h)
	req["min_lon"], req["min_lat"] = minLon, minLat
	req["max_lon"], req["max_lat"] = minLon+w, minLat+h
	return shape{dataset: name, body: encode(req)}
}

// hotPool is the dashboard's fixed tile pool on one dataset; each tile keeps
// one budget from the mix.
func hotPool(name string, ds *workload.Dataset, n int) []shape {
	rng := rand.New(rand.NewSource(hotPoolSeed))
	pool := make([]shape, n)
	for i := range pool {
		pool[i] = tileShape(rng, name, ds, budgetsMs[rng.Intn(len(budgetsMs))])
	}
	return pool
}

// zipfSequence draws n pool indices from a Zipf(s) popularity law; index 0
// is the hottest tile.
func zipfSequence(seed int64, poolSize, n int, s float64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(poolSize-1))
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(z.Uint64())
	}
	return seq
}

// coldShapes draws n distinct shapes, a twitterShare of them on twitter and
// the rest on taxi, with budgets from the mix. Viewport corners are drawn
// from a continuous range, so repeats are vanishingly rare; the set check
// makes "never seen before in the run" exact.
func coldShapes(seed int64, built map[string]*workload.Dataset, n int, twitterShare float64) []shape {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]shape, 0, n)
	for len(out) < n {
		name := "taxi"
		if rng.Float64() < twitterShare {
			name = "twitter"
		}
		sh := tileShape(rng, name, built[name], budgetsMs[rng.Intn(len(budgetsMs))])
		if key := name + string(sh.body); !seen[key] {
			seen[key] = true
			out = append(out, sh)
		}
	}
	return out
}

// maxZoom bounds a session's walk to zoom levels 0..maxZoom: 21 tiles per
// subject, all primed in set-up. Live requests then hit the caches through
// the router, the ring and the peer cache, while predictions beyond the
// lattice still exercise the prefetch lane. An unbounded walk keeps
// finding cold tiles, and its median latency swings between the hit and
// the miss mode from run to run.
const maxZoom = 2

// session is one user's pan/zoom exploration: a fixed subject (keyword,
// window, budget) and a walk over the power-of-two tile lattice the
// server-side predictor snaps to, so predicted tiles and the user's next
// request agree to the bit.
type session struct {
	id     string
	name   string
	ds     *workload.Dataset
	rng    *rand.Rand
	req    map[string]any
	z      int
	kx, ky int
	dx, dy int
}

// newSessions builds n sessions on one dataset. Subjects come from the fixed
// session seed; each walk is seeded from the run seed.
func newSessions(seed int64, name string, ds *workload.Dataset, n int) []*session {
	subj := rand.New(rand.NewSource(sessionSeed))
	out := make([]*session, n)
	for i := range out {
		days := 7 + subj.Intn(53)
		from := ds.TimeOrigin.AddDate(0, 0, subj.Intn(ds.TimeSpanDays-days))
		s := &session{
			id:   fmt.Sprintf("sess-%02d", i),
			name: name,
			ds:   ds,
			rng:  rand.New(rand.NewSource(seed*1000 + int64(i))),
			req: map[string]any{
				"keyword":   fmt.Sprintf("word%04d", subj.Intn(60)),
				"from":      from.Format(time.RFC3339),
				"to":        from.AddDate(0, 0, days).Format(time.RFC3339),
				"kind":      "heatmap",
				"budget_ms": budgetsMs[i%len(budgetsMs)],
			},
			z:  1,
			dx: 1,
		}
		s.kx, s.ky = s.rng.Intn(2), s.rng.Intn(2)
		out[i] = s
	}
	return out
}

// body renders the session's current viewport.
func (s *session) body() []byte {
	ext := s.ds.Extent
	tw := (ext.MaxLon - ext.MinLon) / float64(int(1)<<s.z)
	th := (ext.MaxLat - ext.MinLat) / float64(int(1)<<s.z)
	s.req["grid_w"], s.req["grid_h"] = 128>>s.z, 64>>s.z
	s.req["min_lon"] = ext.MinLon + float64(s.kx)*tw
	s.req["min_lat"] = ext.MinLat + float64(s.ky)*th
	s.req["max_lon"] = ext.MinLon + float64(s.kx+1)*tw
	s.req["max_lat"] = ext.MinLat + float64(s.ky+1)*th
	return encode(s.req)
}

// lattice renders every tile the session's walk can reach.
func (s *session) lattice() []shape {
	z, kx, ky := s.z, s.kx, s.ky
	var out []shape
	for s.z = 0; s.z <= maxZoom; s.z++ {
		for s.kx = 0; s.kx < 1<<s.z; s.kx++ {
			for s.ky = 0; s.ky < 1<<s.z; s.ky++ {
				out = append(out, shape{dataset: s.name, body: s.body()})
			}
		}
	}
	s.z, s.kx, s.ky = z, kx, ky
	return out
}

// step moves the viewport: ~55% keep panning, ~15% turn, ~15% zoom in,
// ~15% zoom out; pans bounce off the extent boundary.
func (s *session) step() {
	pan := func() {
		n := 1 << s.z
		nx, ny := s.kx+s.dx, s.ky+s.dy
		if nx < 0 || nx >= n || ny < 0 || ny >= n {
			s.dx, s.dy = -s.dx, -s.dy
			nx, ny = s.kx+s.dx, s.ky+s.dy
			if nx < 0 || nx >= n || ny < 0 || ny >= n {
				return
			}
		}
		s.kx, s.ky = nx, ny
	}
	switch r := s.rng.Float64(); {
	case r < 0.55:
		pan()
	case r < 0.70:
		d := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}[s.rng.Intn(4)]
		s.dx, s.dy = d[0], d[1]
		pan()
	case r < 0.85 && s.z < maxZoom:
		s.z++
		s.kx, s.ky = 2*s.kx+s.rng.Intn(2), 2*s.ky+s.rng.Intn(2)
	case r >= 0.85 && s.z > 0:
		s.z--
		s.kx, s.ky = s.kx/2, s.ky/2
	default:
		pan()
	}
}

// ingestBodies pre-renders n sync /ingest bodies of rows rows each from the
// dataset's seeded row stream.
func ingestBodies(seed int64, ds *workload.Dataset, n, rows int) ([][]byte, error) {
	st, err := workload.NewIngestStream(ds, seed)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = encode(map[string]any{"rows": st.Next(rows), "sync": true})
	}
	return out, nil
}
