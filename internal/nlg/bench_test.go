package nlg

import (
	"strings"
	"testing"

	"precis/internal/core"
)

func BenchmarkNarrative(b *testing.B) {
	// Reuse the full Woody Allen pipeline from the tests.
	rd, occs := woodyPrecis(b, 100)
	r := paperRenderer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := r.Narrative(rd, occs)
		if err != nil || !strings.Contains(out, "Woody Allen") {
			b.Fatalf("narrative: %v", err)
		}
	}
}

// BenchmarkNarrativeDeep renders the shape of the benchmark's deep workload
// at the translator's seam: the busiest director of 2,000 synthetic films
// at w=0.05, card=150 (several hundred tuples, every relation of the graph).
func BenchmarkNarrativeDeep(b *testing.B) {
	db, g := syntheticMovies(b, 2000)
	r := paperRenderer(b)
	for _, strat := range []core.Strategy{core.StrategyNaive, core.StrategyRoundRobin} {
		b.Run(strat.String(), func(b *testing.B) {
			rd, occs := precisOf(b, db, g, busiestDirector(db), 0.05, core.MaxTuplesPerRelation(150), strat, core.Budget{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out, err := r.Narrative(rd, occs); err != nil || out == "" {
					b.Fatalf("narrative: %q, %v", out, err)
				}
			}
			b.ReportMetric(float64(rd.DB.TotalTuples()), "tuples")
		})
	}
}

// TestNarrativeKeepsNoState guards the per-call narration: whatever one
// Narrative builds (the D′ side of the plan, the tuple and frame stacks) must
// die with the call or go back to the pool emptied, so a second render of the
// same result allocates no more than the first — and what a render allocates
// is the growth of its two stacks and the string it returns, not a string per
// value, clause or paragraph (147 allocations before the translator appended
// into one buffer, 54 after, 19 with the relation metadata in one slice, 10
// with the narration plan compiled once per G′ and the per-call state pooled).
func TestNarrativeKeepsNoState(t *testing.T) {
	rd, occs := woodyPrecis(t, 100)
	r := paperRenderer(t)
	render := func() {
		if _, err := r.Narrative(rd, occs); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		// The detector makes sync.Pool drop a buffer one time in four, and a
		// render that draws a fresh one allocates twice more: the counts below
		// would fail one run in fifteen.
		t.Skip("the race detector empties sync.Pool at random")
	}
	first := testing.AllocsPerRun(1, render)
	second := testing.AllocsPerRun(5, render)
	if second > first {
		t.Errorf("allocations grew from %v to %v per render: state leaks across Narrative calls", first, second)
	}
	if bound := 11.0; second > bound { // 10 % above the 10 measured
		t.Errorf("%v allocations per render, bound %v", second, bound)
	}
}

// TestNarrationPlanHitAllocations: once a frozen G′'s narration plan is
// compiled, finding it again allocates nothing.
func TestNarrationPlanHitAllocations(t *testing.T) {
	rd, occs := woodyPrecis(t, 100)
	if _, err := paperRenderer(t).Narrative(rd, occs); err != nil {
		t.Fatal(err)
	}
	g := rd.Schema.Graph
	p := compile(g)
	if !g.Frozen() || compile(g) != p {
		t.Fatal("the plan of a frozen G′ is not kept")
	}
	if allocs := testing.AllocsPerRun(100, func() { compile(g) }); allocs != 0 {
		t.Errorf("%v allocations per plan hit, want 0", allocs)
	}
}

// templateRenderFixture is the template and bindings BenchmarkTemplateRender
// and TestTemplateRenderAllocs share.
func templateRenderFixture() (*Template, Context) {
	tpl := MustTemplate(`@DNAME + " was born on " + @BDATE + " in " + @BLOCATION + "."`)
	ctx := Context{}
	ctx.Bind("dname", []string{"Woody Allen"})
	ctx.Bind("bdate", []string{"December 1, 1935"})
	ctx.Bind("blocation", []string{"Brooklyn, New York, USA"})
	return tpl, ctx
}

// TestTemplateRenderAllocs: Render appends into one buffer and copies the
// string out; nothing per term of the template.
func TestTemplateRenderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random")
	}
	tpl, ctx := templateRenderFixture()
	allocs := testing.AllocsPerRun(100, func() {
		if out, err := tpl.Render(ctx, nil); err != nil || !strings.HasSuffix(out, "New York, USA.") {
			t.Fatalf("%q, %v", out, err)
		}
	})
	if allocs > 2 {
		t.Errorf("%v allocations per Template.Render, want at most 2", allocs)
	}
}

func BenchmarkTemplateRender(b *testing.B) {
	tpl, ctx := templateRenderFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tpl.Render(ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
}
