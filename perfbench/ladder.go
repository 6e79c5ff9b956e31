package main

import (
	"fmt"
	"net"
	"time"

	"acep/internal/engine"
)

// ladderPasses is the number of timed passes per rung (after one
// untimed pass); a rung's cost is its events over their summed time.
const ladderPasses = 3

// ladder times the rungs of the layer ladder on one stream. Each rung is
// a system the benchmark builds through a layer's public entry point;
// spans cover the benchmark's own calls into it.
type ladder struct {
	in  *input
	tr  *tracer
	res *result
	rep *report
}

// rungResult is one rung's timed passes.
type rungResult struct {
	nsPerEvent float64
	passes     []pass // timed passes only
}

// rung times build over the stream and checks every pass with check.
func (l *ladder) rung(name string, build func(*sink) (system, error), check func(digest) error) rungResult {
	evs := l.in.w.Events
	rs := l.tr.begin(name, 0, time.Now())
	var r rungResult
	var total time.Duration
	for i := 0; i <= ladderPasses; i++ {
		ps := l.tr.begin(name+".pass", rs, time.Now())
		l.tr.cur.Store(int64(ps))
		p := closedPass(build, evs, 0, false)
		end := time.Now()
		l.tr.end(ps, end)
		l.tr.add(name+".setup", ps, end.Add(-p.elapsed-p.setup), end.Add(-p.elapsed))
		l.res.Attempted += uint64(len(evs))
		l.res.Failed += p.failed
		if p.err == nil {
			p.err = check(p.dig)
		}
		if p.err != nil {
			l.rep.Errors = append(l.rep.Errors, fmt.Sprintf("rung %s: %v", name, p.err))
			l.res.Correct = false
		}
		if i == 0 {
			continue // warm-up
		}
		total += p.elapsed
		r.passes = append(r.passes, p)
	}
	l.tr.end(rs, time.Now())
	r.nsPerEvent = float64(total.Nanoseconds()) / float64(ladderPasses*len(evs))
	return r
}

// runTraced climbs the layer ladder on the workload's stream and reports
// the per-layer metrics: bare evaluators, the adaptive engine, the shard
// layer, the in-process and TCP clusters, and the HA pair over a plain
// cluster of the same shape; then the workload's own system traced and
// untraced, and one open-loop pass.
func runTraced(s *spec, seed int64, opts options) (*result, *report) {
	in := newInput(s, seed, opts.streamLength(s))
	rep := &report{Environment: environment(in, seed, opts), Extra: map[string]float64{}}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(err error) (*result, *report) {
		rep.Errors = append(rep.Errors, err.Error())
		res.Correct = false
		return res, rep
	}
	tr := newTracer()
	l := &ladder{in: in, tr: tr, res: res, rep: rep}
	begin := time.Now()
	evs := in.w.Events
	pat, err := in.pattern()
	if err != nil {
		return fail(err)
	}
	sp, err := newStaticPlans(pat, evs)
	if err != nil {
		return fail(err)
	}
	cfg := in.engineConfig(hooks{})
	want := sp.evalDigest(engine.GreedyNFA, pat, evs)
	sameAsWant := func(what string) func(digest) error {
		return func(d digest) error { return sameSet(what, d, want) }
	}
	evalRung := func(model engine.Model) func(*sink) (system, error) {
		return func(k *sink) (system, error) { return evalSys{sp.evaluator(model, pat, k.onMatch)}, nil }
	}
	per := func(x uint64) float64 { return float64(x) / float64(len(evs)) }
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	// Evaluators on one static plan, then the adaptive engine.
	nfaR := l.rung("nfa", evalRung(engine.GreedyNFA), sameAsWant("nfa"))
	treeR := l.rung("tree", evalRung(engine.ZStreamTree), sameAsWant("tree"))
	engR := l.rung("engine", func(k *sink) (system, error) { return newEngineSys(pat, cfg, k.onMatch) }, sameAsWant("engine"))
	set("nfa.ns_per_event", nfaR.nsPerEvent, "ns/ev")
	set("tree.ns_per_event", treeR.nsPerEvent, "ns/ev")
	set("engine.added_ns_per_event", engR.nsPerEvent-nfaR.nsPerEvent, "ns/ev")
	em := engR.passes[len(engR.passes)-1].m
	set("engine.pred_evals_per_event", per(em.PredEvals), "1/ev")
	set("nfa.pm_created_per_event", per(em.PMCreated), "1/ev")
	set("engine.peak_pms", float64(em.PeakPMs), "count")
	set("engine.reopts", float64(em.Reoptimizations), "count")
	set("match.matches", float64(em.Matches), "count")
	var statNs []float64
	for _, p := range engR.passes {
		statNs = append(statNs, float64(p.m.StatTime.Nanoseconds())/float64(len(evs)))
	}
	set("stats.ns_per_event", median(statNs), "ns/ev")

	shards := 2
	shardR := l.rung("shard", func(k *sink) (system, error) { return newShardSys(in, pat, cfg, shards, k.onMatch) }, sameAsWant("shard"))
	ordered := shardR.passes[0].dig
	sameStream := func(what string) func(digest) error {
		return func(d digest) error {
			if d.n != ordered.n || d.ordered != ordered.ordered {
				return fmt.Errorf("%s: %d matches (ordered %016x), shard.New delivered %d (ordered %016x)", what, d.n, d.ordered, ordered.n, ordered.ordered)
			}
			return nil
		}
	}
	set("shard.added_ns_per_event", shardR.nsPerEvent-engR.nsPerEvent, "ns/ev")
	var qwait []float64
	for _, p := range shardR.passes {
		qwait = append(qwait, p.m.QueueWait.Quantile(0.99)/1e3)
	}
	set("shard.queue_wait_p99_us", median(qwait), "us")

	chanR := l.rung("cluster", func(k *sink) (system, error) {
		return newClusterSys(in, pat, cfg, shards, 1, true, nil, k.onMatch)
	}, sameStream("cluster"))
	set("cluster.added_ns_per_event", chanR.nsPerEvent-shardR.nsPerEvent, "ns/ev")

	var wires []*wireCounts
	wireR := l.rung("wire", func(k *sink) (system, error) {
		wc := &wireCounts{}
		wires = append(wires, wc)
		return newClusterSys(in, pat, cfg, shards, 1, false, func(c net.Conn) net.Conn { return countConn{c, wc} }, k.onMatch)
	}, sameStream("wire"))
	set("wire.added_ns_per_event", wireR.nsPerEvent-chanR.nsPerEvent, "ns/ev")
	var wbytes, wblock []float64
	for _, wc := range wires[1:] {
		wbytes = append(wbytes, per(uint64(wc.read.Load()+wc.written.Load())))
		wblock = append(wblock, per(uint64(wc.writeNs.Load())))
	}
	set("wire.bytes_per_event", median(wbytes), "B/ev")
	set("wire.write_block_ns_per_event", median(wblock), "ns/ev")

	plainR := l.rung("ha.base", func(k *sink) (system, error) {
		return newClusterSys(in, pat, cfg, 1, shards, false, nil, k.onMatch)
	}, sameStream("ha.base"))
	var pairs []*haSys
	haR := l.rung("ha", func(k *sink) (system, error) {
		sys, err := newHASys(in, pat, cfg, 1, shards, nil, k.onMatch)
		if err == nil {
			pairs = append(pairs, sys.(*haSys))
		}
		return sys, err
	}, sameStream("ha"))
	set("ha.added_ns_per_event", haR.nsPerEvent-plainR.nsPerEvent, "ns/ev")
	if len(pairs) > 0 {
		cuts, _ := pairs[len(pairs)-1].p.MirrorStats()
		set("ha.mirror_cuts", float64(cuts), "count")
	}

	// The workload's own system, untraced and traced: the traced passes
	// wrap D and A and count the transport; their cost over the untraced
	// passes is the tracing overhead.
	wantOwn, err := in.reference()
	if err != nil {
		return fail(fmt.Errorf("reference: %w", err))
	}
	own := func(d digest) error { return in.check(d, wantOwn) }
	plainOwn := l.rung("workload", func(k *sink) (system, error) { return in.setup(hooks{}, k.onMatch) }, own)
	var insts []*instruments
	tracedOwn := l.rung("workload.traced", func(k *sink) (system, error) {
		m := &instruments{}
		insts = append(insts, m)
		return in.setup(m.hooks(tr), k.onMatch)
	}, own)
	set("trace.overhead", 1-plainOwn.nsPerEvent/tracedOwn.nsPerEvent, "ratio")
	m := insts[len(insts)-1]
	last := tracedOwn.passes[len(tracedOwn.passes)-1].m
	set("core.decide_calls", float64(m.pol.calls.Load()), "count")
	set("core.fired", float64(m.pol.fired.Load()), "count")
	precision := 1.0 // D never fired: no wasted firing
	if f := m.pol.fired.Load(); f > 0 {
		precision = float64(last.Reoptimizations) / float64(f)
	}
	set("core.precision", precision, "ratio")
	var decideNs, planNs []float64
	for _, m := range insts[1:] {
		if c := m.pol.calls.Load(); c > 0 {
			decideNs = append(decideNs, float64(m.pol.ns.Load())/float64(c))
		}
		if c := m.alg.calls.Load(); c > 0 {
			planNs = append(planNs, float64(m.alg.ns.Load())/float64(c))
		}
	}
	set("core.decide_ns_per_call", median(decideNs), "ns")
	set("planner.calls", float64(m.alg.calls.Load()), "count")
	set("planner.ns_per_call", median(planNs), "ns")

	op := openPass(func(k *sink) (system, error) { return in.setup(hooks{}, k.onMatch) }, evs, s.rate, 0)
	res.Attempted += uint64(len(evs))
	res.Failed += op.failed
	if op.err == nil {
		op.err = own(op.dig)
	}
	if op.err != nil {
		rep.Errors = append(rep.Errors, fmt.Sprintf("open pass: %v", op.err))
		res.Correct = false
	}
	set("loadgen.lag_p99_us", quantile(op.lag, 0.99), "us")
	set("loadgen.match_latency_p99_us", quantile(op.lat, 0.99), "us")
	set("loadgen.match_latency_samples", float64(len(op.lat)), "count")

	rep.Extra["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	rep.Extra["measured_s"] = time.Since(begin).Seconds()
	rep.Extra["spans"] = float64(len(tr.spans))
	if err := tr.write(opts.out, spanFile(s, seed)); err != nil {
		rep.Errors = append(rep.Errors, fmt.Sprintf("writing spans: %v", err))
	}
	return res, rep
}
