package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/maliva/maliva/internal/middleware"
)

// clientTimeout bounds one request; a request that fails or times out is
// charged this latency, so it misses every latency limit.
const clientTimeout = 10 * time.Second

// result is one /viz request as the client saw it.
type result struct {
	dataset    string
	due, start time.Time
	end        time.Time
	code       int
	trace      vizTrace // parsed from a 200's body
	req, body  []byte   // kept only for requests sampled for the correctness gate
}

// latencyMs is the latency from the scheduled send time, or clientTimeout
// for a request that was not answered 200.
func (r result) latencyMs() float64 {
	if r.code != http.StatusOK {
		return float64(clientTimeout) / 1e6
	}
	return float64(r.end.Sub(r.due)) / 1e6
}

// loader is the load generator: one HTTP client with at most conns
// connections to the deployment.
type loader struct {
	url    string
	client *http.Client
	tr     *tracer // nil: untraced
	reqIDs atomic.Int64
}

func newLoader(url string, conns int, tr *tracer) *loader {
	transport := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}
	return &loader{url: url, client: &http.Client{Transport: transport, Timeout: clientTimeout}, tr: tr}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// post sends one request and reads the whole response. In a traced run it
// records the client span, named after the path ("client/viz"), and passes
// its identity to the server wrapper.
func (l *loader) post(path string, body []byte, sid string) (int, []byte, error) {
	r, err := http.NewRequest(http.MethodPost, l.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	r.Header.Set("Content-Type", "application/json")
	if sid != "" {
		r.Header.Set(middleware.SessionHeader, sid)
	}
	var id, req int64
	var start time.Time
	if l.tr != nil {
		id, req = l.tr.newID(), l.reqIDs.Add(1)
		r.Header.Set(reqHeader, strconv.FormatInt(req, 10))
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		start = time.Now()
	}
	resp, err := l.client.Do(r)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if l.tr != nil {
		name, _, _ := strings.Cut(path, "?")
		l.tr.add(id, 0, req, "client"+name, start, time.Now())
	}
	return resp.StatusCode, data, err
}

// viz sends one /viz request and summarizes the answer.
func (l *loader) viz(sh shape, sid string, due time.Time, keep bool) result {
	r := result{dataset: sh.dataset, due: due, start: time.Now()}
	code, body, err := l.post("/viz?dataset="+sh.dataset, sh.body, sid)
	r.end = time.Now()
	if err == nil {
		r.code = code
	}
	r.finish(sh.body, body, keep)
	return r
}

// finish parses the trace of a 200 and keeps the request and response
// bodies when sampled.
func (r *result) finish(req, body []byte, keep bool) {
	if r.code != http.StatusOK {
		return
	}
	if tr, ok := parseTrace(body); ok {
		r.trace = tr
	} else {
		r.code = -1 // a 200 without a readable trace is a failure
	}
	if keep {
		r.req, r.body = req, body
	}
}

// vizTrace is the part of a response's middleware.Trace the metrics read.
// Leaving out the SQL strings keeps the load generator's own heap, and so
// its garbage-collection work, small.
type vizTrace struct {
	PlanMs      float64 `json:"plan_ms"`
	TotalMs     float64 `json:"total_ms"`
	Viable      bool    `json:"viable"`
	NumExplored int     `json:"num_explored"`
}

var traceKey = []byte(`"trace":`)

// parseTrace decodes only the response's trace object. It is the last field
// of middleware.Response, so the bins before it need not be decoded.
func parseTrace(body []byte) (vizTrace, bool) {
	var tr vizTrace
	i := bytes.LastIndex(body, traceKey)
	if i < 0 {
		return tr, false
	}
	tail := bytes.TrimRight(body[i+len(traceKey):], "\n")
	if len(tail) == 0 || tail[len(tail)-1] != '}' {
		return tr, false
	}
	if err := json.Unmarshal(tail[:len(tail)-1], &tr); err != nil {
		return tr, false
	}
	return tr, true
}

// openLoop sends n requests, request i due at start+i·interval, from at most
// workers goroutines. A late sender does not shift the schedule: its delay
// is charged to the requests that waited.
func openLoop(n int, interval time.Duration, workers int, do func(i int, due time.Time) result) ([]result, time.Duration) {
	out := make([]result, n)
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				out[i] = do(i, due)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// sleepUntil waits until t. The runtime's timers wake at millisecond
// granularity on Linux (a sub-millisecond sleep rounds up to a whole one),
// which would charge up to a millisecond of generator lag to every request
// of an open loop; the last stretch is slept with nanosleep(2) instead,
// which blocks only this goroutine's thread.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// closedLoop runs workers clients back to back until the deadline; each
// request is due when its client sends it.
func closedLoop(workers int, d time.Duration, do func(i int, due time.Time) result) ([]result, time.Duration) {
	var next atomic.Int64
	start := time.Now()
	until := start.Add(d)
	parts := make([][]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(until) {
				parts[w] = append(parts[w], do(int(next.Add(1)-1), time.Now()))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []result
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, elapsed
}

// dueSession is one session waiting for its next send.
type dueSession struct {
	at time.Time
	s  *session
}

type sessionQueue []dueSession

func (q sessionQueue) Len() int           { return len(q) }
func (q sessionQueue) Less(i, j int) bool { return q[i].at.Before(q[j].at) }
func (q sessionQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *sessionQueue) Push(x any)        { *q = append(*q, x.(dueSession)) }
func (q *sessionQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// sessionLoop replays the sessions for d: a session's next request is due
// think after its previous answer arrived. workers senders serve whichever
// session is due first, so a slow answer delays other sessions' sends and
// that delay counts against them.
func sessionLoop(workers int, sessions []*session, think, d time.Duration, do func(s *session, due time.Time) result) ([]result, time.Duration) {
	start := time.Now()
	until := start.Add(d)
	q := make(sessionQueue, 0, len(sessions))
	for i, s := range sessions {
		// Stagger the first sends across one think time.
		q = append(q, dueSession{at: start.Add(think * time.Duration(i) / time.Duration(len(sessions))), s: s})
	}
	heap.Init(&q)
	var mu sync.Mutex
	parts := make([][]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				if q.Len() == 0 || !q[0].at.Before(until) {
					mu.Unlock()
					return
				}
				next := heap.Pop(&q).(dueSession)
				mu.Unlock()
				sleepUntil(next.at)
				parts[w] = append(parts[w], do(next.s, next.at))
				next.s.step()
				mu.Lock()
				heap.Push(&q, dueSession{at: time.Now().Add(think), s: next.s})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []result
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, elapsed
}

// ack is one sync /ingest acknowledgement.
type ack struct {
	due       time.Time
	latencyMs float64
	rows      int
	ok        bool
}

// ingest posts one sync batch; latency runs from due to the ack.
func (l *loader) ingest(dataset string, body []byte, rows int, due time.Time) ack {
	code, _, err := l.post("/ingest?dataset="+dataset, body, "")
	return ack{due: due, latencyMs: float64(time.Since(due)) / 1e6, rows: rows, ok: err == nil && code == http.StatusOK}
}
