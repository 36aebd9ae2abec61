package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/middleware"
)

// staleRounds is how many sync flushes the write-mix stale-read check makes,
// comparing staleShapes pool tiles after each.
const (
	staleRounds = 4
	staleShapes = 16
)

// refCache answers requests from uncached reference servers, one per
// dataset, each built over the deployment's data and a copy of its policy.
type refCache struct {
	servers  []*middleware.Server
	handlers map[string]http.Handler
}

func newRefCache(d *deployment) (*refCache, error) {
	rc := &refCache{handlers: make(map[string]http.Handler)}
	for _, name := range d.cfg.datasets {
		srv, err := d.reference(name)
		if err != nil {
			rc.close()
			return nil, err
		}
		rc.servers = append(rc.servers, srv)
		rc.handlers[name] = srv.Handler()
	}
	return rc, nil
}

// close shuts the reference servers' write paths down; they never ingest,
// so there is nothing to flush.
func (rc *refCache) close() {
	for _, s := range rc.servers {
		_ = s.Close()
	}
}

// answer serves one body on the reference, in process.
func (rc *refCache) answer(dataset string, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	rc.handlers[dataset].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/viz", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference answered %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// checkSampled compares every kept response with the reference byte for
// byte. Equal request bodies are answered once on the reference.
func checkSampled(rc *refCache, w *window) (checked int, err error) {
	type probe struct {
		dataset string
		req     []byte
	}
	index := make(map[string]int)
	var probes []probe
	var kept []result
	for _, r := range w.all() {
		if r.req == nil || r.code != http.StatusOK {
			continue
		}
		kept = append(kept, r)
		k := r.dataset + "\x00" + string(r.req)
		if _, ok := index[k]; !ok {
			index[k] = len(probes)
			probes = append(probes, probe{r.dataset, r.req})
		}
	}
	want := make([][]byte, len(probes))
	err = core.RunIndexed(len(probes), runtime.NumCPU(), func(i int) error {
		b, err := rc.answer(probes[i].dataset, probes[i].req)
		want[i] = b
		return err
	})
	if err != nil {
		return 0, err
	}
	for _, r := range kept {
		if exp := want[index[r.dataset+"\x00"+string(r.req)]]; !bytes.Equal(exp, r.body) {
			return checked, fmt.Errorf("response differs from the reference for %s %s:\n got  %s\n want %s", r.dataset, r.req, clip(r.body), clip(exp))
		}
		checked++
	}
	return checked, nil
}

// checkStale is the post-flush stale-read check: after each sync flush,
// every compared tile must already reflect the new data version.
func checkStale(rc *refCache, c config, in *inputs, l *loader, w *window) (checked int, err error) {
	for r, body := range in.stale {
		a := l.ingest("twitter", body, ingestRows, time.Now())
		w.probeAcks = append(w.probeAcks, a)
		if !a.ok {
			return checked, fmt.Errorf("stale-read check: sync ingest %d failed", r)
		}
		w.ackedRows += a.rows
		for j := 0; j < staleShapes; j++ {
			sh := in.pool[(r*staleShapes+j)%len(in.pool)]
			got := l.viz(sh, "", time.Now(), true)
			if got.code != http.StatusOK {
				return checked, fmt.Errorf("stale-read check: status %d", got.code)
			}
			want, err := rc.answer(sh.dataset, sh.body)
			if err != nil {
				return checked, err
			}
			if !bytes.Equal(want, got.body) {
				return checked, fmt.Errorf("stale read after flush %d for %s:\n got  %s\n want %s", r, sh.body, clip(got.body), clip(want))
			}
			checked++
		}
	}
	return checked, nil
}

// checkRows asserts that every acknowledged row is in the table.
func checkRows(d *deployment, startRows int, w *window) error {
	if rows := tableRows(d); rows != startRows+w.ackedRows {
		return fmt.Errorf("twitter holds %d rows, want %d built + %d acknowledged", rows, startRows, w.ackedRows)
	}
	return nil
}

// tableRows reads the twitter row count.
func tableRows(d *deployment) int {
	ds := d.built["twitter"]
	ds.DB.RLockData()
	defer ds.DB.RUnlockData()
	return ds.DB.Table(ds.Main).Rows
}

func clip(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "…"
	}
	return string(b)
}
