package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"acep/internal/core"
	"acep/internal/pattern"
	"acep/internal/planner"
	"acep/internal/stats"
)

// span is one timed call into a layer, made by the benchmark itself.
// Spans of one traced run share the run's trace; Parent links a span to
// the span that caused it (0: the run).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// cur is the span calls made from inside a layer (planner runs)
	// attach to: the pass being timed.
	cur atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	id := t.begin(name, parent, start)
	t.end(id, end)
	return id
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// policyCounts measures D through core.Policy wrappers. Shard engines
// run on their own goroutines, so the counters are atomic.
type policyCounts struct {
	calls, fired, ns atomic.Int64
}

type tracedPolicy struct {
	inner core.Policy
	c     *policyCounts
}

func (p tracedPolicy) Name() string                              { return p.inner.Name() }
func (p tracedPolicy) Install(tr *core.Trace, s *stats.Snapshot) { p.inner.Install(tr, s) }
func (p tracedPolicy) ShouldReoptimize(s *stats.Snapshot) bool {
	t0 := time.Now()
	fire := p.inner.ShouldReoptimize(s)
	p.c.ns.Add(int64(time.Since(t0)))
	p.c.calls.Add(1)
	if fire {
		p.c.fired.Add(1)
	}
	return fire
}

// plannerCounts measures A through planner.Algorithm wrappers.
type plannerCounts struct {
	calls, ns atomic.Int64
}

type tracedAlgorithm struct {
	inner planner.Algorithm
	c     *plannerCounts
	tr    *tracer
}

func (a tracedAlgorithm) Name() string { return a.inner.Name() }
func (a tracedAlgorithm) Generate(pat *pattern.Pattern, s *stats.Snapshot) planner.Result {
	t0 := time.Now()
	r := a.inner.Generate(pat, s)
	t1 := time.Now()
	a.c.ns.Add(int64(t1.Sub(t0)))
	a.c.calls.Add(1)
	a.tr.add("planner.Generate", int(a.tr.cur.Load()), t0, t1)
	return r
}

// wireCounts measures the transport beneath cluster.WrapNetConn.
type wireCounts struct {
	read, written, writeNs atomic.Int64
}

// countConn counts bytes and the time Write blocks on a net.Conn. It
// sits beneath cluster.WrapNetConn, so the framed connection above it is
// the program's own, with its decode arena and stall probes intact.
type countConn struct {
	net.Conn
	c *wireCounts
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.read.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.c.writeNs.Add(int64(time.Since(t0)))
	c.c.written.Add(int64(n))
	return n, err
}

// instruments bundles one traced system's counters and the hooks that
// feed them.
type instruments struct {
	pol  policyCounts
	alg  plannerCounts
	wire wireCounts
}

func (m *instruments) hooks(tr *tracer) hooks {
	return hooks{
		policy: func(p core.Policy) core.Policy { return tracedPolicy{p, &m.pol} },
		alg:    func(a planner.Algorithm) planner.Algorithm { return tracedAlgorithm{a, &m.alg, tr} },
		conn:   func(c net.Conn) net.Conn { return countConn{c, &m.wire} },
	}
}

func spanFile(s *spec, seed int64) string { return fmt.Sprintf("spans-%s-%d.jsonl", s.name, seed) }
