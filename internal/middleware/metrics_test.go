package middleware

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
)

// TestLatencyHistQuantiles: the exponential-bucket estimator lands within
// its bucket resolution (a factor of 2) of the true quantiles and keeps
// the ordering p50 ≤ p95 ≤ p99 ≤ max.
func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	// Uniform 1..100 ms.
	for i := 1; i <= 100; i++ {
		h.observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.quantile(0.50)
	p95 := h.quantile(0.95)
	p99 := h.quantile(0.99)
	max := float64(h.maxNs.Load()) / float64(time.Millisecond)

	if max != 100 {
		t.Errorf("max = %v, want 100", max)
	}
	if p50 < 25 || p50 > 100 {
		t.Errorf("p50 = %v, want within a bucket of 50", p50)
	}
	if p95 < 47.5 || p95 > 100 {
		t.Errorf("p95 = %v, want within a bucket of 95", p95)
	}
	if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v max=%v", p50, p95, p99, max)
	}

	// Empty histogram reports zeros.
	var empty latencyHist
	if empty.quantile(0.95) != 0 {
		t.Error("empty histogram quantile != 0")
	}

	// A single observation pins every quantile to (at most) itself.
	var one latencyHist
	one.observe(3 * time.Millisecond)
	if q := one.quantile(0.99); q <= 0 || q > 3 {
		t.Errorf("single-sample p99 = %v, want in (0, 3]", q)
	}
}

// TestMetricsSnapshotRates: derived rates come out of the raw counters.
func TestMetricsSnapshotRates(t *testing.T) {
	m := NewMetrics()
	m.requests.Add(10)
	m.ok.Add(8)
	m.clientErr.Add(2)
	m.planHits.Add(6)
	m.planMisses.Add(2)
	m.resultHits.Add(3)
	m.resultMisses.Add(1)
	m.budgetViolations.Add(2)
	m.latency.observe(2 * time.Millisecond)

	s := m.Snapshot()
	if s.PlanHitRate != 0.75 {
		t.Errorf("PlanHitRate = %v, want 0.75", s.PlanHitRate)
	}
	if s.ResultHitRate != 0.75 {
		t.Errorf("ResultHitRate = %v, want 0.75", s.ResultHitRate)
	}
	if s.BudgetViolationRate != 0.25 {
		t.Errorf("BudgetViolationRate = %v, want 0.25", s.BudgetViolationRate)
	}
	if s.LatencyCount != 1 || s.LatencyAvgMs <= 0 {
		t.Errorf("latency: %+v", s)
	}

	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"maliva_requests_total 10",
		`maliva_responses_total{code="2xx"} 8`,
		"maliva_plan_cache_hit_rate 0.75",
		"maliva_budget_violations_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestRewriterFallbackCounter: the MDP rewriter's silent baseline fallback
// (a query whose option count differs from the agent's) is counted once per
// rewrite decision, in the JSON snapshot and as a labeled Prometheus series,
// and the counted responses are byte-identical to the baseline rewriter's.
func TestRewriterFallbackCounter(t *testing.T) {
	ds := testDataset(t)
	space := core.HintOnlySpec()
	agent := core.NewAgent(core.DefaultAgentConfig(), 8) // 3-predicate hint space
	mdp, err := NewServer(ds, &core.MDPRewriter{Agent: agent}, space, 500)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewServer(ds, core.BaselineRewriter{}, space, 500)
	if err != nil {
		t.Fatal(err)
	}
	twoPred := validRequest()
	twoPred.Keyword = "" // time + region: |Ω| = 4
	for i, budget := range []float64{500, 500, 1000} {
		twoPred.BudgetMs = budget
		got, err := mdp.Handle(twoPred)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Handle(twoPred)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("request %d: fallback response differs from the baseline rewriter's", i)
		}
	}
	if got := mdp.Metrics().Snapshot().RewriterFallbackOptionCount; got != 2 {
		t.Errorf("fallbacks = %d, want 2 (one per distinct budget decision)", got)
	}
	var buf bytes.Buffer
	mdp.Metrics().WritePrometheusLabeled(&buf, `dataset="twitter"`)
	if want := `maliva_rewriter_fallback_total{dataset="twitter",reason="option_count"} 2`; !strings.Contains(buf.String(), want) {
		t.Errorf("metrics missing %q:\n%s", want, buf.String())
	}
	if got := base.Metrics().Snapshot().RewriterFallbackOptionCount; got != 0 {
		t.Errorf("baseline rewriter fallbacks = %d, want 0", got)
	}
}
