package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/match"
)

// digest folds a match stream into two fingerprints: ordered depends on
// delivery order (the cluster and HA contract: byte-identical to the
// single-process sharded engine), set does not (the engine contract:
// the same match set as any other plan of either model). Both cover
// every core event and every Kleene event of every match.
type digest struct {
	n       uint64
	ordered uint64
	set     uint64
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// matchHash identifies a match by its core events in position order and
// each Kleene position's event set (order-free within the set).
func matchHash(m *match.Match) uint64 {
	h := uint64(14695981039346656037)
	for _, ev := range m.Events {
		v := uint64(0)
		if ev != nil {
			v = ev.Seq
		}
		h = (h ^ mix64(v)) * 1099511628211
	}
	for p, set := range m.Kleene {
		if set == nil {
			continue
		}
		var s uint64
		for _, ev := range set {
			s += mix64(ev.Seq)
		}
		h = (h ^ mix64(s+uint64(p))) * 1099511628211
	}
	return h
}

func (d *digest) add(m *match.Match) {
	h := matchHash(m)
	d.n++
	d.set += mix64(h)
	d.ordered = (d.ordered^h)*1099511628211 + d.n
}

// latestSeq is the sequence number of a match's latest event: the event
// whose arrival completed it.
func latestSeq(m *match.Match) uint64 {
	var s uint64
	for _, ev := range m.Events {
		if ev != nil && ev.Seq > s {
			s = ev.Seq
		}
	}
	for _, set := range m.Kleene {
		for _, ev := range set {
			if ev.Seq > s {
				s = ev.Seq
			}
		}
	}
	return s
}

// sink receives a system's matches. It may be called from any one
// goroutine at a time per system; the mutex orders the HA pair's gate,
// which delivers from more than one goroutine over a run.
type sink struct {
	mu  sync.Mutex
	dig digest
	// dropAt, when nonzero, discards the dropAt-th match: the benchmark's
	// own test uses it to show the correctness gate catches a lost match.
	dropAt uint64
	seen   uint64
	// Open-loop latency: the due time of event seq s is
	// start + (s-first)*interval.
	timed    bool
	start    time.Time
	first    uint64
	interval float64 // ns per event
	lat      []float64
}

func (s *sink) onMatch(m *match.Match) {
	var now time.Time
	if s.timed {
		now = time.Now()
	}
	s.mu.Lock()
	s.seen++
	if s.seen != s.dropAt {
		s.dig.add(m)
		if s.timed {
			due := s.start.Add(time.Duration(float64(latestSeq(m)-s.first) * s.interval))
			s.lat = append(s.lat, float64(now.Sub(due))/1e3)
		}
	}
	s.mu.Unlock()
}

// pass is one full run of a stream through a freshly built system.
type pass struct {
	setup   time.Duration
	elapsed time.Duration // first Process to the return of Finish
	alloc   uint64        // whole-process TotalAlloc delta over elapsed
	heap    float64       // live heap MiB the system retains (heap passes)
	dig     digest
	failed  uint64 // events offered but not evaluated
	err     error  // Process/Finish failure
	m       engine.Metrics
	lat     []float64 // open-loop match latencies, us
	lag     []float64 // open-loop generator lateness, us
	// slowTenth is the closed-loop speed of the stream's slowest tenth,
	// in events/s, as seen from the caller.
	slowTenth float64
	// steal is the CPU time the hypervisor took from this machine's
	// virtual CPUs during the pass.
	steal time.Duration
	// slowdown is the host's speed factor around the pass (calibrator).
	slowdown float64
}

// stealLimit is the share of the machine's CPU time over a pass the
// hypervisor may steal before the pass is void for timing: on a shared
// host a neighbour's burst halves throughput and turns the open loop's
// backlog into latency, which says nothing about the program. A busy
// host steals a few percent steadily; bursts go far beyond this.
const stealLimit = 0.10

// stealFrac is the share of the machine's CPU time stolen in the pass.
func (p pass) stealFrac() float64 {
	return float64(p.steal) / (float64(p.elapsed) * float64(runtime.NumCPU()))
}

// disturbed reports whether the host stole too much of the pass.
func (p pass) disturbed() bool { return p.stealFrac() > stealLimit }

// stolen reads the CPU time stolen from all virtual CPUs since boot
// (the steal column of /proc/stat, in USER_HZ ticks of 10ms). It is 0
// where the kernel does not account steal.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// refCalibNs is the calibration loop's ns per step on a quiet run of
// the reference host (2 vCPUs at 2.1 GHz); timed figures are scaled to
// it.
const refCalibNs = 10.0

// calibrator times a fixed compute loop over an L2-sized table next to
// every measured pass. A shared host runs everything in a process up to
// half again slower for minutes at a time (neighbour load on shared
// cores and caches, with no steal to show for it); the loop slows with
// it while the program's code cannot touch it, so dividing the host's
// factor out leaves the program's own speed.
type calibrator struct{ tab []uint64 }

func newCalibrator() *calibrator {
	c := &calibrator{tab: make([]uint64, 1<<15)} // 256 KiB
	for i := range c.tab {
		c.tab[i] = mix64(uint64(i))
	}
	return c
}

// slowdown is the host's current speed relative to the reference: the
// loop's ns per step over refCalibNs (above 1: slower).
func (c *calibrator) slowdown() float64 {
	const steps = 1 << 22 // about 40ms
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < steps; i++ {
		x = mix64(x + c.tab[x&(1<<15-1)])
	}
	ns := float64(time.Since(t0).Nanoseconds()) / steps
	c.tab[0] ^= x & 1 // keeps the loop's result live
	return ns / refCalibNs
}

// failedEvents counts the events a finished system offered but did not
// evaluate.
func failedEvents(m engine.Metrics) uint64 {
	return m.LateDropped + m.EventsShed + m.QueueDropped
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// closedPass feeds evs as fast as Process returns. With measureHeap it
// records the heap the system retains at the end of the stream, before
// Finish; that pass's timing includes the forced collection and is not
// used for throughput.
func closedPass(build func(*sink) (system, error), evs []event.Event, dropAt uint64, measureHeap bool) pass {
	var p pass
	runtime.GC()
	var base uint64
	if measureHeap {
		base = liveHeap()
	}
	k := &sink{dropAt: dropAt}
	t0 := time.Now()
	sys, err := build(k)
	p.setup = time.Since(t0)
	if err != nil {
		p.err = fmt.Errorf("setup: %w", err)
		return p
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal0 := stolen()
	start := time.Now()
	tenth, prev := len(evs)/10, start
	var slowest time.Duration
	for i := range evs {
		sys.Process(&evs[i])
		if tenth > 0 && (i+1)%tenth == 0 {
			now := time.Now()
			slowest = max(slowest, now.Sub(prev))
			prev = now
		}
	}
	if slowest > 0 {
		p.slowTenth = float64(tenth) / slowest.Seconds()
	}
	if measureHeap {
		if h := liveHeap(); h > base {
			p.heap = float64(h-base) / (1 << 20)
		}
	}
	err = sys.Finish()
	p.elapsed = time.Since(start)
	p.steal = stolen() - steal0
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	return finishPass(p, sys, k, err, len(evs))
}

func finishPass(p pass, sys system, k *sink, err error, n int) pass {
	if err != nil {
		p.err = fmt.Errorf("finish: %w", err)
		p.failed = uint64(n)
		sys.close()
		return p
	}
	p.m = sys.Metrics()
	p.failed = failedEvents(p.m)
	k.mu.Lock()
	p.dig = k.dig
	p.lat = k.lat
	k.mu.Unlock()
	return p
}

// openPass offers evs at a fixed rate, pacing by spinning on the
// caller's goroutine (sleeping overshoots by milliseconds). A match's
// latency runs from the due time of its latest event to its delivery.
func openPass(build func(*sink) (system, error), evs []event.Event, rate float64, dropAt uint64) pass {
	var p pass
	runtime.GC()
	k := &sink{dropAt: dropAt, timed: true, first: evs[0].Seq, interval: 1e9 / rate, lat: make([]float64, 0, 1<<14)}
	t0 := time.Now()
	sys, err := build(k)
	p.setup = time.Since(t0)
	if err != nil {
		p.err = fmt.Errorf("setup: %w", err)
		return p
	}
	p.lag = make([]float64, 0, len(evs))
	steal0 := stolen()
	start := time.Now()
	k.mu.Lock()
	k.start = start
	k.mu.Unlock()
	for i := range evs {
		due := time.Duration(float64(i) * k.interval)
		now := time.Since(start)
		for now < due {
			now = time.Since(start)
		}
		p.lag = append(p.lag, float64(now-due)/1e3)
		sys.Process(&evs[i])
	}
	err = sys.Finish()
	p.elapsed = time.Since(start)
	p.steal = stolen() - steal0
	return finishPass(p, sys, k, err, len(evs))
}

// quantile is the nearest-rank p-quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
