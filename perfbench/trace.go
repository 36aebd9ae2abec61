package main

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Headers carrying a traced request's identity from the load generator to
// the server-side wrapper span. The wrapper removes them before the program
// sees the request, so the program receives only the generated bytes.
const (
	reqHeader  = "X-Bench-Req"
	spanHeader = "X-Bench-Span"
)

// span is one timed call at a layer boundary, in nanoseconds since the
// tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: a root span
	Req    int64  `json:"req"`    // request the span serves (-1: none)
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// time runs fn inside a fresh span and returns the span's id.
func (t *tracer) time(name string, parent, req int64, fn func()) int64 {
	id := t.newID()
	start := time.Now()
	fn()
	t.add(id, parent, req, name, start, time.Now())
	return id
}

// wrap records a span around every request next serves, named after the
// prefix and the path ("server/viz") and parented to the client span named
// in the request headers.
func (t *tracer) wrap(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			req = -1
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		r.Header.Del(reqHeader)
		r.Header.Del(spanHeader)
		id := t.newID()
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(id, parent, req, name+r.URL.Path, start, time.Now())
	})
}

// reset drops the spans recorded so far (set-up traffic), so the trace
// covers the measured window alone.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of its interval covered by
// the union of its children's intervals (children may overlap each other or
// run past the parent's edges).
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// layerRow summarizes one span name: how often it ran, its total time, and
// its self time.
type layerRow struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	TotalMs   float64 `json:"total_ms"`
	SelfMs    float64 `json:"self_ms"`
	SelfP50Us float64 `json:"self_p50_us"`
}

// layerTable computes per-name self times over a span set.
func layerTable(spans []span) []layerRow {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	type acc struct {
		n           int
		total, self int64
		selfs       []float64
	}
	byName := make(map[string]*acc)
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
		}
		st := selfTime(s, kids[s.ID])
		a.n++
		a.total += s.dur()
		a.self += st
		a.selfs = append(a.selfs, float64(st)/1e3)
	}
	rows := make([]layerRow, 0, len(byName))
	for name, a := range byName {
		rows = append(rows, layerRow{
			Name: name, Count: a.n,
			TotalMs:   float64(a.total) / 1e6,
			SelfMs:    float64(a.self) / 1e6,
			SelfP50Us: newDist(a.selfs).p50(),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })
	return rows
}

// durations returns the durations (in unit) of every span with the name;
// selfOnly subtracts each span's children.
func durations(spans []span, name string, unit time.Duration, selfOnly bool) dist {
	var kids map[int64][]span
	if selfOnly {
		kids = make(map[int64][]span)
		for _, s := range spans {
			if s.Parent != 0 {
				kids[s.Parent] = append(kids[s.Parent], s)
			}
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if selfOnly {
			d = selfTime(s, kids[s.ID])
		}
		out = append(out, float64(d)/float64(unit))
	}
	return newDist(out)
}
