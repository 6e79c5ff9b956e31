package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"

	"acep/internal/cluster"
	"acep/internal/core"
	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/gen"
	"acep/internal/ha"
	"acep/internal/match"
	"acep/internal/pattern"
	"acep/internal/planner"
	"acep/internal/shard"
)

// layer names the entry point a workload's end-to-end run goes through.
type layer int

const (
	engineLayer  layer = iota // engine.New
	clusterLayer              // cluster.NewNode + cluster.NewIngress over loopback TCP
	haLayer                   // ha.New over loopback TCP, healthy pair, no lease
)

// spec is one benchmark workload: the stream it generates from a seed,
// the pattern it detects, the layer it drives, and the open-loop rate
// its latency phase offers.
type spec struct {
	name string
	why  string
	// events is the stream length. Regime shifts sit at fixed fractions
	// of the stream, so match density depends on it: it is fixed here,
	// never derived from the run length.
	events int
	// rate is the open-loop offered rate in events/s, well under the
	// closed-loop speed of the stream's slowest tenth (a quarter on
	// adapt, whose completing events take half a millisecond each; a
	// third on the distributed paths), so that little backlog builds
	// even when a shared host runs the program slower.
	rate  float64
	layer layer
	// stream generates the structural stream: the type and attribute
	// sequence with its regime schedule, from the fixed streamSeed.
	stream func(events int) *gen.Workload
	kind   gen.Kind
	size   int
	window event.Time
	// nodes x shardsPerNode is the distributed shape (cluster and HA).
	nodes, shardsPerNode int
	// oracleEvents is the stream prefix the brute-force oracle checks on
	// engine workloads: long enough to hold matches, short enough for an
	// exponential matcher.
	oracleEvents int
}

const (
	checkEvery   = 500
	clusterBatch = 256
	keyAttr      = "key"
)

var specs = []*spec{
	{
		name:   "adapt-keyed-traffic",
		why:    "the paper's setting: adaptive GreedyNFA on keyed traffic with extreme regime shifts, where statistics, D, A and re-planning do the work",
		events: 600000,
		rate:   40000,
		layer:  engineLayer,
		stream: func(n int) *gen.Workload {
			return gen.Traffic(gen.TrafficConfig{Types: 10, Events: n, Seed: streamSeed, Shifts: 3, Keys: 4})
		},
		kind: gen.Sequence, size: 4, window: 4800,
		nodes: 1, shardsPerNode: 1, oracleEvents: 5000,
	},
	{
		name:   "cluster-keyed-stocks",
		why:    "the distributed data path: 2 nodes x 1 shard over loopback TCP, where partitioning, cuts, the wire codec and the ordered merge carry the load",
		events: 1000000,
		rate:   350000,
		layer:  clusterLayer,
		stream: func(n int) *gen.Workload {
			return gen.Stocks(gen.StocksConfig{Types: 10, Events: n, Seed: streamSeed, Keys: 16})
		},
		kind: gen.Sequence, size: 4, window: 2400,
		nodes: 2, shardsPerNode: 1,
	},
	{
		name:   "ha-keyed-stocks",
		why:    "the cluster stream through a healthy ha.Pair (1 worker x 2 shards, in-process standby): the only workload that measures internal/ha",
		events: 1000000,
		rate:   280000,
		layer:  haLayer,
		stream: func(n int) *gen.Workload {
			return gen.Stocks(gen.StocksConfig{Types: 10, Events: n, Seed: streamSeed, Keys: 16})
		},
		kind: gen.Sequence, size: 4, window: 2400,
		nodes: 1, shardsPerNode: 2,
	},
}

func findSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// input is a workload's generated stream. Generation is never timed.
type input struct {
	spec *spec
	w    *gen.Workload
}

// streamSeed fixes the structural stream of every workload. Seeds vary
// the sample drawn from a regime, not the regime schedule: across
// generator seeds the schedule alone moves match counts by two orders of
// magnitude, which no run-to-run bound could hold.
const streamSeed = 1

// meanGap is the generators' default mean inter-event gap (logical ms).
const meanGap = 2

// newInput builds the workload's stream for one seed: the structural
// stream with every inter-arrival gap redrawn from the seed, from the
// generator's own gap distribution. Types, attribute values, keys and
// the regime schedule stay fixed; which events share a window varies.
func newInput(s *spec, seed int64, events int) *input {
	w := s.stream(events)
	r := rand.New(rand.NewSource(seed))
	ts := event.Time(0)
	for i := range w.Events {
		ts += 1 + event.Time(r.ExpFloat64()*meanGap)
		w.Events[i].TS = ts
	}
	return &input{spec: s, w: w}
}

// pattern builds the workload's pattern. Every stream is keyed, so the
// pattern joins on the key and every rung of the ladder can run it.
func (in *input) pattern() (*pattern.Pattern, error) {
	return in.w.Pattern(in.spec.kind, in.spec.size, in.spec.window)
}

// hooks carries the traced run's instrumentation into the systems it
// builds. The zero value builds the untraced program. conn wraps the
// ingress side's net.Conn on a cluster and each worker's on an HA pair
// (ha.New dials the workers itself), beneath cluster.WrapNetConn.
type hooks struct {
	policy func(core.Policy) core.Policy
	alg    func(planner.Algorithm) planner.Algorithm
	conn   func(net.Conn) net.Conn
}

// engineConfig is the engine configuration every layer of the workload
// shares: GreedyNFA, no a-priori statistics (the paper's empty Stat),
// the invariant policy and the greedy planner.
func (in *input) engineConfig(h hooks) engine.Config {
	cfg := engine.Config{Model: engine.GreedyNFA, CheckEvery: checkEvery}
	cfg.NewPolicy = func() core.Policy {
		var p core.Policy = &core.Invariant{}
		if h.policy != nil {
			p = h.policy(p)
		}
		return p
	}
	var alg planner.Algorithm = planner.Greedy{}
	if h.alg != nil {
		alg = h.alg(alg)
	}
	cfg.Algorithm = alg
	return cfg
}

// system is one constructed instance of a layer, ready for Process.
type system interface {
	Process(*event.Event)
	// Finish flushes the stream and reports a failed run.
	Finish() error
	// Metrics is valid after Finish.
	Metrics() engine.Metrics
	// close releases what Finish leaves behind (listeners, goroutines).
	close()
}

type engineSys struct{ e *engine.Engine }

func (s engineSys) Process(ev *event.Event) { s.e.Process(ev) }
func (s engineSys) Finish() error           { s.e.Finish(); return nil }
func (s engineSys) Metrics() engine.Metrics { return s.e.Metrics() }
func (s engineSys) close()                  {}
func newEngineSys(pat *pattern.Pattern, cfg engine.Config, onMatch func(*match.Match)) (system, error) {
	cfg.OnMatch = onMatch
	e, err := engine.New(pat, cfg)
	if err != nil {
		return nil, err
	}
	return engineSys{e}, nil
}

type shardSys struct{ e *shard.Engine }

func (s shardSys) Process(ev *event.Event) { s.e.Process(ev) }
func (s shardSys) Finish() error           { s.e.Finish(); return nil }
func (s shardSys) Metrics() engine.Metrics { return s.e.Metrics() }
func (s shardSys) close()                  {}
func newShardSys(in *input, pat *pattern.Pattern, cfg engine.Config, shards int, onMatch func(*match.Match)) (system, error) {
	e, err := shard.New(pat, cfg, shard.Options{
		Shards: shards, Batch: clusterBatch, KeyAttr: keyAttr, Schema: in.w.Schema, OnMatch: onMatch,
	})
	if err != nil {
		return nil, err
	}
	return shardSys{e}, nil
}

// workers is a set of worker nodes, each serving one session accepted on
// its own loopback listener (or over an in-process pipe).
type workers struct {
	addrs []string
	ls    []net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	err   error
}

func (ws *workers) fail(err error) {
	ws.mu.Lock()
	if ws.err == nil {
		ws.err = err
	}
	ws.mu.Unlock()
}

// startWorkers builds n nodes of shardsPerNode shards. With pipe set
// they are served over cluster.Pipe and the client ends are returned;
// otherwise each listens on loopback TCP and its address is recorded.
// wrap (optional) wraps each accepted net.Conn beneath
// cluster.WrapNetConn.
func startWorkers(in *input, pat *pattern.Pattern, cfg engine.Config, n, shardsPerNode int, pipe bool, wrap func(net.Conn) net.Conn) (*workers, []cluster.Conn, error) {
	ws := &workers{}
	var pipes []cluster.Conn
	for i := 0; i < n; i++ {
		node, err := cluster.NewNode(cluster.NodeConfig{
			Pattern: pat, Engine: cfg, Shards: shardsPerNode, Batch: clusterBatch,
			KeyAttr: keyAttr, Schema: in.w.Schema,
		})
		if err != nil {
			ws.close()
			return nil, nil, err
		}
		if pipe {
			client, server := cluster.Pipe()
			pipes = append(pipes, client)
			ws.wg.Add(1)
			go func() {
				defer ws.wg.Done()
				if err := node.Serve(server); err != nil {
					ws.fail(fmt.Errorf("node: %w", err))
				}
			}()
			continue
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ws.close()
			return nil, nil, err
		}
		ws.ls = append(ws.ls, l)
		ws.addrs = append(ws.addrs, l.Addr().String())
		ws.wg.Add(1)
		go func() {
			defer ws.wg.Done()
			c, err := l.Accept()
			l.Close()
			if err != nil {
				ws.fail(fmt.Errorf("node accept: %w", err))
				return
			}
			if wrap != nil {
				c = wrap(c)
			}
			if err := node.Serve(cluster.WrapNetConn(c)); err != nil {
				ws.fail(fmt.Errorf("node: %w", err))
			}
		}()
	}
	return ws, pipes, nil
}

// close stops any listener still waiting and waits for every node.
func (ws *workers) close() {
	for _, l := range ws.ls {
		l.Close()
	}
	ws.wg.Wait()
}

type clusterSys struct {
	ing *cluster.Ingress
	ws  *workers
}

func (s *clusterSys) Process(ev *event.Event) { s.ing.Process(ev) }
func (s *clusterSys) Finish() error {
	err := s.ing.Finish()
	s.ws.close()
	if err == nil {
		err = s.ws.err
	}
	return err
}
func (s *clusterSys) Metrics() engine.Metrics { return s.ing.Metrics() }
func (s *clusterSys) close()                  { s.ing.Kill(); s.ws.close() }

// newClusterSys builds nodes x shardsPerNode workers behind one
// ingress, over loopback TCP or in-process pipes. wrap wraps the
// ingress side's net.Conn beneath cluster.WrapNetConn (TCP only).
func newClusterSys(in *input, pat *pattern.Pattern, cfg engine.Config, nodes, shardsPerNode int, pipe bool, wrap func(net.Conn) net.Conn, onMatch func(*match.Match)) (system, error) {
	ws, conns, err := startWorkers(in, pat, cfg, nodes, shardsPerNode, pipe, nil)
	if err != nil {
		return nil, err
	}
	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		ws.close()
	}
	if !pipe {
		conns = make([]cluster.Conn, nodes)
		for i, a := range ws.addrs {
			c, err := net.Dial("tcp", a)
			if err != nil {
				closeAll()
				return nil, err
			}
			if wrap != nil {
				c = wrap(c)
			}
			conns[i] = cluster.WrapNetConn(c)
		}
	}
	ing, err := cluster.NewIngress(pat, conns, cluster.IngressOptions{
		Batch: clusterBatch, KeyAttr: keyAttr, Schema: in.w.Schema, OnMatch: onMatch,
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	return &clusterSys{ing: ing, ws: ws}, nil
}

type haSys struct {
	p  *ha.Pair
	ws *workers
}

func (s *haSys) Process(ev *event.Event) { s.p.Process(ev) }
func (s *haSys) Finish() error {
	err := s.p.Finish()
	s.ws.close()
	if err == nil {
		err = s.ws.err
	}
	return err
}
func (s *haSys) Metrics() engine.Metrics { return s.p.Ingress().Metrics() }
func (s *haSys) close()                  { s.p.Ingress().Kill(); s.ws.close() }

// newHASys builds a healthy replicated pair with its standby spawned on
// loopback in-process, over workers x shardsPerNode TCP workers. wrap
// wraps each worker-side net.Conn beneath cluster.WrapNetConn.
func newHASys(in *input, pat *pattern.Pattern, cfg engine.Config, workersN, shardsPerNode int, wrap func(net.Conn) net.Conn, onMatch func(*match.Match)) (system, error) {
	ws, _, err := startWorkers(in, pat, cfg, workersN, shardsPerNode, false, wrap)
	if err != nil {
		return nil, err
	}
	p, err := ha.New(ha.Config{
		Pattern: pat, Schema: in.w.Schema, KeyAttr: keyAttr, Batch: clusterBatch,
		Workers:  ws.addrs,
		OnTagged: func(t shard.Tagged) { onMatch(t.M) },
	})
	if err != nil {
		ws.close()
		return nil, err
	}
	return &haSys{p: p, ws: ws}, nil
}

// setup builds the workload's own system from scratch: the pattern,
// then the layer. It is what setup_s times.
func (in *input) setup(h hooks, onMatch func(*match.Match)) (system, error) {
	pat, err := in.pattern()
	if err != nil {
		return nil, err
	}
	cfg := in.engineConfig(h)
	s := in.spec
	switch s.layer {
	case engineLayer:
		return newEngineSys(pat, cfg, onMatch)
	case clusterLayer:
		return newClusterSys(in, pat, cfg, s.nodes, s.shardsPerNode, false, h.conn, onMatch)
	case haLayer:
		return newHASys(in, pat, cfg, s.nodes, s.shardsPerNode, h.conn, onMatch)
	}
	return nil, fmt.Errorf("unknown layer %d", s.layer)
}
