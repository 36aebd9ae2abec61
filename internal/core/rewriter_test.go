package core

import (
	"math"
	"testing"
)

func TestBaselineRewriter(t *testing.T) {
	ctx := synthContext([]float64{300, 100}, [][]int{{0}, {1}})
	ctx.BaselineMs = 300
	ctx.BaselineOption = 0
	out := BaselineRewriter{}.Rewrite(ctx, 500)
	if out.Option != 0 || out.PlanMs != 0 || out.ExecMs != 300 || !out.Viable {
		t.Errorf("outcome = %+v", out)
	}
	out = BaselineRewriter{}.Rewrite(ctx, 200)
	if out.Viable {
		t.Error("should be non-viable at τ=200")
	}
}

// TestMDPRewriterOptionSpaceMismatch: a policy trained for one option-space
// shape must not crash on a query with a different option count (a frontend
// request with fewer predicates than the training workload) — it degrades
// to the no-rewrite baseline instead, and labels the outcome as a fallback.
func TestMDPRewriterOptionSpaceMismatch(t *testing.T) {
	agent := NewAgent(fastAgentConfig(), 4) // trained shape: |Ω| = 4
	ctx := synthContext([]float64{300, 100}, [][]int{{0}, {1}})
	ctx.BaselineMs = 300
	ctx.BaselineOption = 0
	rw := &MDPRewriter{Agent: agent, QTE: &stubQTE{UnitMs: 10, BaseMs: 5}}
	out := rw.Rewrite(ctx, 500) // |Ω| = 2: must not panic
	want := BaselineRewriter{}.Rewrite(ctx, 500)
	want.Fallback = FallbackOptionCount
	if out != want {
		t.Errorf("mismatched option space: outcome = %+v, want baseline %+v", out, want)
	}
}

func TestNaiveRewriterExploresEverything(t *testing.T) {
	ctx := synthContext([]float64{400, 150, 600}, [][]int{{0}, {1}, {2}})
	qte := &stubQTE{UnitMs: 30, BaseMs: 10}
	out := NaiveRewriter{QTE: qte}.Rewrite(ctx, 1000)
	if out.Explored != 3 {
		t.Errorf("Explored = %d, want 3", out.Explored)
	}
	if out.Option != 1 {
		t.Errorf("Option = %d, want the fastest estimate", out.Option)
	}
	wantPlan := 3 * (30 + 10.0)
	if math.Abs(out.PlanMs-wantPlan) > 1e-9 {
		t.Errorf("PlanMs = %v, want %v", out.PlanMs, wantPlan)
	}
	if math.Abs(out.TotalMs-(wantPlan+150)) > 1e-9 {
		t.Errorf("TotalMs = %v", out.TotalMs)
	}
}

func TestNaiveRewriterExactOnly(t *testing.T) {
	ctx := synthContext([]float64{400, 150}, [][]int{{0}, {1}})
	ctx.Options = append(ctx.Options, Option{Approx: ApproxRule{Kind: ApproxLimit, Percent: 1}})
	ctx.TrueMs = append(ctx.TrueMs, 10)
	ctx.Quality = append(ctx.Quality, 0.1)
	ctx.NeedSels = append(ctx.NeedSels, []int{0, 1})
	ctx.PlanEst = append(ctx.PlanEst, ctx.PlanEst[0])

	qte := &stubQTE{UnitMs: 10, BaseMs: 0}
	out := NaiveRewriter{QTE: qte, ExactOnly: true}.Rewrite(ctx, 1000)
	if out.Explored != 2 || out.Option == 2 {
		t.Errorf("ExactOnly should skip approx options: %+v", out)
	}
	out = NaiveRewriter{QTE: qte}.Rewrite(ctx, 1000)
	if out.Explored != 3 || out.Option != 2 {
		t.Errorf("full naive should pick the limit option: %+v", out)
	}
}

func TestOracleRewriter(t *testing.T) {
	ctx := synthContext([]float64{400, 150, 600}, [][]int{{0}, {1}, {2}})
	out := OracleRewriter{}.Rewrite(ctx, 500)
	if out.Option != 1 || !out.Viable || out.PlanMs != 0 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestSubContextMapping(t *testing.T) {
	ctx := synthContext([]float64{400, 150, 600}, [][]int{{0}, {1}, {2}})
	ctx.Options[2].Approx = ApproxRule{Kind: ApproxLimit, Percent: 5}
	ctx.Quality[2] = 0.4
	ctx.BaselineOption = 1

	exact := ExactOptionIndexes(ctx)
	if len(exact) != 2 {
		t.Fatalf("exact = %v", exact)
	}
	approx := ApproxOptionIndexes(ctx)
	if len(approx) != 1 || approx[0] != 2 {
		t.Fatalf("approx = %v", approx)
	}
	sub := SubContext(ctx, exact)
	if sub.N() != 2 || sub.TrueMs[1] != 150 || sub.BaselineOption != 1 {
		t.Errorf("sub context wrong: %+v", sub)
	}
	sub2 := SubContext(ctx, approx)
	if sub2.N() != 1 || sub2.Quality[0] != 0.4 || sub2.BaselineOption != -1 {
		t.Errorf("approx sub context wrong: %+v", sub2)
	}
}

// TestTwoStageFallsThroughToApprox: when no exact option is viable, the
// two-stage rewriter must explore the approximation stage and return an
// approximate decision.
func TestTwoStageFallsThroughToApprox(t *testing.T) {
	// Exact options all cost 2000 ms; one approx option runs in 100 ms.
	ctx := synthContext([]float64{2000, 2000}, [][]int{{0}, {1}})
	ctx.Options = append(ctx.Options, Option{Approx: ApproxRule{Kind: ApproxLimit, Percent: 5}})
	ctx.TrueMs = append(ctx.TrueMs, 100)
	ctx.Quality = append(ctx.Quality, 0.6)
	ctx.NeedSels = append(ctx.NeedSels, []int{0, 1})
	ctx.PlanEst = append(ctx.PlanEst, ctx.PlanEst[0])

	qte := &stubQTE{UnitMs: 20, BaseMs: 5}
	one := NewAgent(fastAgentConfig(), 2)
	two := NewAgent(fastAgentConfig(), 1)
	rw := &TwoStageRewriter{StageOne: one, StageTwo: two, QTE: qte, Beta: 0.7}
	out := rw.Rewrite(ctx, 500)
	if out.Option != 2 {
		t.Fatalf("two-stage should fall through to the approx option, got %d", out.Option)
	}
	if !out.Viable {
		t.Errorf("expected viable approx outcome: %+v", out)
	}
	if out.Quality != 0.6 {
		t.Errorf("quality = %v", out.Quality)
	}
	// Stage-1 exploration must be charged: plan time covers both stages.
	if out.PlanMs <= 2*(20+5)-1 {
		t.Errorf("plan time %v should include stage-1 exploration", out.PlanMs)
	}
}

// TestTwoStageKeepsExactWhenViable: with a viable exact option, stage 2 is
// never consulted.
func TestTwoStageKeepsExactWhenViable(t *testing.T) {
	ctx := synthContext([]float64{100, 2000}, [][]int{{0}, {1}})
	ctx.Options = append(ctx.Options, Option{Approx: ApproxRule{Kind: ApproxLimit, Percent: 5}})
	ctx.TrueMs = append(ctx.TrueMs, 50)
	ctx.Quality = append(ctx.Quality, 0.3)
	ctx.NeedSels = append(ctx.NeedSels, []int{0, 1})
	ctx.PlanEst = append(ctx.PlanEst, ctx.PlanEst[0])

	qte := &stubQTE{UnitMs: 20, BaseMs: 5}
	one := NewAgent(fastAgentConfig(), 2)
	two := NewAgent(fastAgentConfig(), 1)
	// Train stage one so it reliably finds the viable exact option.
	exact := SubContext(ctx, ExactOptionIndexes(ctx))
	one.Train([]*QueryContext{exact, exact, exact}, EnvConfig{Budget: 500, QTE: qte, Beta: 1})

	rw := &TwoStageRewriter{StageOne: one, StageTwo: two, QTE: qte, Beta: 0.7}
	out := rw.Rewrite(ctx, 500)
	if ctx.Options[out.Option].IsApprox() {
		t.Fatalf("two-stage gave up quality despite a viable exact option: %+v", out)
	}
	if out.Quality != 1 {
		t.Errorf("quality = %v, want 1", out.Quality)
	}
}

func TestMDPRewriterName(t *testing.T) {
	r := &MDPRewriter{QTE: &stubQTE{}, Tag: "Accurate-QTE"}
	if r.Name() != "MDP (Accurate-QTE)" {
		t.Errorf("Name = %q", r.Name())
	}
	r2 := &MDPRewriter{QTE: &stubQTE{}}
	if r2.Name() != "MDP (stub)" {
		t.Errorf("Name = %q", r2.Name())
	}
}
