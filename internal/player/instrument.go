package player

import (
	"context"

	"pano/internal/abr"
	"pano/internal/manifest"
	"pano/internal/obs"
	"pano/internal/trace"
)

// instrumentedPlanner wraps a Planner with per-call timing and
// counting, keyed by planner name.
type instrumentedPlanner struct {
	Planner
	lat   *obs.Histogram
	plans *obs.Counter
}

// Instrument wraps p so each Plan call is timed into
// pano_planner_plan_seconds{planner=...} and counted into
// pano_planner_plans_total{planner=...}. With a nil registry it
// returns p unchanged, so it is always safe to call.
func Instrument(p Planner, reg *obs.Registry) Planner {
	if reg == nil || p == nil {
		return p
	}
	lbl := obs.L("planner", p.Name())
	return &instrumentedPlanner{
		Planner: p,
		lat: reg.Histogram("pano_planner_plan_seconds",
			"tile-level allocation latency by planner", nil, lbl),
		plans: reg.Counter("pano_planner_plans_total",
			"tile-level allocation calls by planner", lbl),
	}
}

func (ip *instrumentedPlanner) Plan(m *manifest.Video, k int, view ChunkView, budget float64) abr.Allocation {
	t := obs.NewTimer(ip.lat)
	a := ip.Planner.Plan(m, k, view, budget)
	t.ObserveDuration()
	ip.plans.Inc()
	return a
}

// PlanCtx is Plan under a context: the per-tile quality assignment runs
// inside a child "assign" span of the context's chunk span (§6.1's
// PSPNR assignment step), and the latency observation carries the trace
// id as an exemplar so a slow assignment bucket links to its trace.
func (ip *instrumentedPlanner) PlanCtx(ctx context.Context, m *manifest.Video, k int, view ChunkView, budget float64) abr.Allocation {
	_, sp := trace.StartSpan(ctx, "assign",
		trace.A("planner", ip.Planner.Name()), trace.A("budget_bits", budget))
	t := obs.NewTimer(nil)
	a := ip.Planner.Plan(m, k, view, budget)
	d := t.ObserveDuration()
	sp.Annotate("tiles", len(a))
	sp.End()
	ip.lat.ObserveExemplar(d.Seconds(), sp.TraceHex())
	ip.plans.Inc()
	return a
}

// ctxPlanner is the optional context-carrying planner surface.
type ctxPlanner interface {
	PlanCtx(ctx context.Context, m *manifest.Video, k int, view ChunkView, budget float64) abr.Allocation
}

// PlanWithContext routes a Plan call through the planner's PlanCtx when
// it has one (the instrumented wrapper does), so the allocation is
// traced and exemplar-linked; otherwise it wraps the plain Plan in an
// "assign" span itself — when ctx carries a span to be the parent of;
// an untraced context is a plain Plan call. Behaviour is identical
// either way.
func PlanWithContext(ctx context.Context, p Planner, m *manifest.Video, k int, view ChunkView, budget float64) abr.Allocation {
	if cp, ok := p.(ctxPlanner); ok {
		return cp.PlanCtx(ctx, m, k, view, budget)
	}
	if trace.FromContext(ctx) == nil {
		return p.Plan(m, k, view, budget)
	}
	_, sp := trace.StartSpan(ctx, "assign", trace.A("planner", p.Name()), trace.A("budget_bits", budget))
	a := p.Plan(m, k, view, budget)
	sp.Annotate("tiles", len(a))
	sp.End()
	return a
}
