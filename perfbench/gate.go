package main

import (
	"fmt"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
	"acep/internal/nfa"
	"acep/internal/oracle"
	"acep/internal/pattern"
	"acep/internal/plan"
	"acep/internal/planner"
	"acep/internal/stats"
	"acep/internal/tree"
)

// planPrefix is how many leading events the static plans are generated
// from. stats.Exact is quadratic, so the prefix stays small.
const planPrefix = 2000

// evaluator is the surface shared by nfa.Engine and tree.Engine.
type evaluator interface {
	Process(*event.Event)
	Finish()
	Stats() nfa.Stats
}

// staticPlans generates one plan per model, once, from exact statistics
// of the stream's prefix.
type staticPlans struct {
	order *plan.OrderPlan
	tree  *plan.TreePlan
}

func newStaticPlans(pat *pattern.Pattern, evs []event.Event) (staticPlans, error) {
	snap := stats.Exact(pat, evs[:min(planPrefix, len(evs))])
	op, ok := planner.Greedy{}.Generate(pat, snap).Plan.(*plan.OrderPlan)
	if !ok {
		return staticPlans{}, fmt.Errorf("greedy planner returned no order plan")
	}
	tp, ok := planner.ZStream{}.Generate(pat, snap).Plan.(*plan.TreePlan)
	if !ok {
		return staticPlans{}, fmt.Errorf("zstream planner returned no tree plan")
	}
	return staticPlans{op, tp}, nil
}

// evaluator builds model's bare evaluator on its static plan.
func (sp staticPlans) evaluator(model engine.Model, pat *pattern.Pattern, emit func(*match.Match)) evaluator {
	if model == engine.ZStreamTree {
		return tree.New(pat, sp.tree, emit)
	}
	return nfa.New(pat, sp.order, emit)
}

// evalSys runs a bare evaluator as a ladder rung.
type evalSys struct{ e evaluator }

func (s evalSys) Process(ev *event.Event) { s.e.Process(ev) }
func (s evalSys) Finish() error           { s.e.Finish(); return nil }
func (s evalSys) Metrics() engine.Metrics {
	st := s.e.Stats()
	return engine.Metrics{Matches: st.Emitted, PMCreated: st.PMCreated, PredEvals: st.PredEvals, PeakPMs: st.PeakPMs}
}
func (s evalSys) close() {}

// evalDigest runs a bare evaluator over evs and digests its output.
func (sp staticPlans) evalDigest(model engine.Model, pat *pattern.Pattern, evs []event.Event) digest {
	var d digest
	ev := sp.evaluator(model, pat, d.add)
	for i := range evs {
		ev.Process(&evs[i])
	}
	ev.Finish()
	return d
}

// reference computes the digest every pass of the workload's own system
// must reproduce. Engine workloads (GreedyNFA) compare match sets
// against the static-plan evaluator of the other model, the ZStream
// tree, after both that evaluator and the workload's system have been
// checked against the brute-force oracle on a prefix. Cluster and HA
// workloads compare the ordered stream against shard.New at the same
// total shard count.
func (in *input) reference() (digest, error) {
	s := in.spec
	pat, err := in.pattern()
	if err != nil {
		return digest{}, err
	}
	if s.layer != engineLayer {
		k := &sink{}
		sys, err := newShardSys(in, pat, in.engineConfig(hooks{}), s.nodes*s.shardsPerNode, k.onMatch)
		if err != nil {
			return digest{}, err
		}
		for i := range in.w.Events {
			sys.Process(&in.w.Events[i])
		}
		return k.dig, sys.Finish()
	}

	sp, err := newStaticPlans(pat, in.w.Events)
	if err != nil {
		return digest{}, err
	}
	prefix := in.w.Events[:min(s.oracleEvents, len(in.w.Events))]
	var want digest
	for _, m := range oracle.Matches(pat, prefix) {
		want.add(m)
	}
	ref := sp.evalDigest(engine.ZStreamTree, pat, prefix)
	if err := sameSet("static tree evaluator on the oracle prefix", ref, want); err != nil {
		return digest{}, err
	}
	k := &sink{}
	sys, err := in.setup(hooks{}, k.onMatch)
	if err != nil {
		return digest{}, err
	}
	for i := range prefix {
		sys.Process(&prefix[i])
	}
	if err := sys.Finish(); err != nil {
		return digest{}, err
	}
	if err := sameSet(s.name+" on the oracle prefix", k.dig, want); err != nil {
		return digest{}, err
	}
	return sp.evalDigest(engine.ZStreamTree, pat, in.w.Events), nil
}

func sameSet(what string, got, want digest) error {
	if got.n != want.n || got.set != want.set {
		return fmt.Errorf("%s: %d matches (set %016x), want %d (set %016x)", what, got.n, got.set, want.n, want.set)
	}
	return nil
}

// check compares one pass of the workload's system with the reference.
func (in *input) check(got, want digest) error {
	if in.spec.layer == engineLayer {
		return sameSet(in.spec.name, got, want)
	}
	if got.n != want.n || got.ordered != want.ordered {
		return fmt.Errorf("%s: %d matches (ordered %016x), shard.New delivered %d (ordered %016x)",
			in.spec.name, got.n, got.ordered, want.n, want.ordered)
	}
	return nil
}
