// Command perfbench is the repository's benchmark. It runs one named
// workload through the public entry point of its layer (engine.New,
// cluster.NewNode + cluster.NewIngress, or ha.New), checks every pass's
// output against a reference, and prints the end-to-end metrics; with
// -trace 1 it instead climbs the layer ladder on the same stream and
// prints the per-layer metrics. The last line of standard output is the
// result object.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload adapt-keyed-traffic --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options sizes one run.
type options struct {
	seconds float64
	// events overrides the workload's stream length (the short mode of
	// the benchmark's own tests); 0 keeps it.
	events int
	// warm is the number of untimed passes before timing starts.
	warm int
	// dropAt, when nonzero, drops the dropAt-th match of every pass of
	// the measured system (tests only).
	dropAt uint64
	// out is where the traced run writes its spans ("" skips writing).
	out string
}

// streamLength is the run's stream length: the workload's own, unless
// the short mode overrides it.
func (o options) streamLength(s *spec) int {
	if o.events > 0 {
		return o.events
	}
	return s.events
}

// report is what a run measured, beyond the result: it is printed ahead
// of the result line for people reading the log.
type report struct {
	Environment map[string]any     `json:"environment"`
	Extra       map[string]float64 `json:"extra"`
	Errors      []string           `json:"errors,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced layer-ladder run")
	out := flag.String("out", "", "directory for the traced run's spans")
	flag.Parse()
	s, err := findSpec(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	opts := options{seconds: *seconds, warm: 2, out: *out}
	var res *result
	var rep *report
	if *trace == 1 {
		res, rep = runTraced(s, *seed, opts)
	} else {
		res, rep = runWorkload(s, *seed, opts)
	}
	rep.Environment["source_sha256"] = sourceDigest()
	if c := os.Getenv("ACEP_COMMIT"); c != "" {
		rep.Environment["commit"] = c
	}
	printRun(os.Stdout, s, res, rep)
	if !res.Correct || len(rep.Errors) > 0 {
		os.Exit(1)
	}
}

func environment(in *input, seed int64, opts options) map[string]any {
	s := in.spec
	return map[string]any{
		"workload":    s.name,
		"cores":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"commit":      "unknown",
		"seed":        seed,
		"events":      len(in.w.Events),
		"open_rate":   s.rate,
		"warm_passes": opts.warm,
		"seconds":     opts.seconds,
	}
}

// runWorkload is the untraced run: warm-up, a closed-loop phase and an
// open-loop phase on the workload's own system, every pass checked.
func runWorkload(s *spec, seed int64, opts options) (*result, *report) {
	in := newInput(s, seed, opts.streamLength(s))
	rep := &report{Environment: environment(in, seed, opts), Extra: map[string]float64{}}
	res := &result{Metrics: map[string]metric{}}
	fail := func(err error) (*result, *report) {
		rep.Errors = append(rep.Errors, err.Error())
		res.Correct = false
		return res, rep
	}
	want, err := in.reference()
	if err != nil {
		return fail(fmt.Errorf("reference: %w", err))
	}
	rep.Extra["matches"] = float64(want.n)
	build := func(k *sink) (system, error) { return in.setup(hooks{}, k.onMatch) }
	evs := in.w.Events

	res.Correct = true
	var setups, heaps, tps, allocs, lats, lags, tenths []float64
	record := func(p pass, phase string) {
		res.Attempted += uint64(len(evs))
		res.Failed += p.failed
		if p.err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s pass: %v", phase, p.err))
			res.Correct = false
			return
		}
		if err := in.check(p.dig, want); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s pass: %v", phase, err))
			res.Correct = false
		}
	}

	// Throughput and setup time are scaled by the host's slowdown measured
	// next to their pass (see calibrator); the raw throughput goes to the
	// report. Latency is not: at the open-loop rates it is paced by the
	// generator and the cut size as much as by the CPU.
	cal := newCalibrator()
	closedCal := func(heap bool) pass {
		f := cal.slowdown()
		p := closedPass(build, evs, opts.dropAt, heap)
		p.slowdown = f
		return p
	}

	// Warm-up: the first pass in a fresh process runs at about half
	// speed. The last warm-up pass also measures the retained heap.
	for i := 0; i < opts.warm; i++ {
		p := closedCal(i == opts.warm-1)
		record(p, "warm-up")
		if i == opts.warm-1 {
			heaps = append(heaps, p.heap)
		}
		if i > 0 { // the first setup in a process is cold
			setups = append(setups, p.setup.Seconds()/p.slowdown)
		}
	}
	// Passes the host disturbed (see stealLimit) are run and checked but
	// not timed; more passes run in their place, up to the hard stop.
	begin := time.Now()
	budget := time.Duration(opts.seconds * float64(time.Second))
	closedEnd := begin.Add(budget * 7 / 10)
	hardStop := begin.Add(budget * 3 / 2)
	var closed, clean []pass
	var steals []float64
	for len(closed) < 3 || time.Now().Before(closedEnd) || (len(clean) < 3 && time.Now().Before(hardStop)) {
		p := closedCal(false)
		record(p, "closed")
		setups = append(setups, p.setup.Seconds()/p.slowdown)
		allocs = append(allocs, float64(p.alloc)/float64(len(evs)))
		closed = append(closed, p)
		steals = append(steals, p.stealFrac())
		if !p.disturbed() {
			clean = append(clean, p)
		}
	}
	timed := clean
	if len(timed) == 0 {
		timed = closed
	}
	var closedTime, refTime time.Duration
	var slowdowns []float64
	for _, p := range timed {
		tps = append(tps, float64(len(evs))/p.elapsed.Seconds())
		tenths = append(tenths, p.slowTenth)
		closedTime += p.elapsed
		refTime += time.Duration(float64(p.elapsed) / p.slowdown)
		slowdowns = append(slowdowns, p.slowdown)
	}
	// On asynchronous paths the state in flight at the end of the stream
	// varies from pass to pass, so four more passes measure the heap; a
	// single engine's retained heap repeats exactly.
	heapPasses := 4
	if s.layer == engineLayer {
		heapPasses = 0
	}
	for range heapPasses {
		p := closedCal(true)
		record(p, "heap")
		setups = append(setups, p.setup.Seconds()/p.slowdown)
		heaps = append(heaps, p.heap)
	}
	var open []pass
	cleanOpen := 0
	for len(open) < 1 || time.Since(begin) < budget || (cleanOpen == 0 && time.Now().Before(hardStop)) {
		f := cal.slowdown()
		p := openPass(build, evs, s.rate, opts.dropAt)
		p.slowdown = (f + cal.slowdown()) / 2
		slowdowns = append(slowdowns, p.slowdown)
		record(p, "open")
		setups = append(setups, p.setup.Seconds()/p.slowdown)
		open = append(open, p)
		steals = append(steals, p.stealFrac())
		if !p.disturbed() {
			cleanOpen++
		}
	}
	for _, p := range open {
		if !p.disturbed() || cleanOpen == 0 {
			lats = append(lats, p.lat...)
			lags = append(lags, p.lag...)
		}
	}

	// Throughput is events over time summed across the timed closed
	// passes: garbage collection lands in some passes and not others, and
	// the sum charges it at its true rate where a per-pass median would
	// not.
	res.Metrics["throughput_eps"] = metric{float64(len(timed)*len(evs)) / refTime.Seconds(), "ev/s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["alloc_bytes_per_event"] = metric{median(allocs), "B/ev"}
	res.Metrics["heap_live_mib"] = metric{median(heaps), "MiB"}
	rep.Extra["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	rep.Extra["host_slowdown"] = median(slowdowns)
	rep.Extra["throughput_raw_eps"] = float64(len(timed)*len(evs)) / closedTime.Seconds()
	// The open-loop latency is reported, not gated: on a shared host its
	// median moved by a third between runs of the engine workload, more
	// than any bound the benchmark may set.
	rep.Extra["match_latency_p50_us"] = quantile(lats, 0.50)
	rep.Extra["match_latency_p99_us"] = quantile(lats, 0.99)
	rep.Extra["match_latency_samples"] = float64(len(lats))
	rep.Extra["loadgen_lag_p99_us"] = quantile(lags, 0.99)
	rep.Extra["closed_passes"] = float64(len(closed))
	rep.Extra["closed_passes_timed"] = float64(len(clean))
	rep.Extra["slowest_tenth_eps"] = median(tenths)
	rep.Extra["throughput_min"] = slices.Min(tps)
	rep.Extra["throughput_max"] = slices.Max(tps)
	rep.Extra["open_passes"] = float64(len(open))
	rep.Extra["open_passes_timed"] = float64(cleanOpen)
	rep.Extra["steal_frac_median"] = median(steals)
	rep.Extra["steal_frac_max"] = slices.Max(steals)
	rep.Extra["measured_s"] = time.Since(begin).Seconds()
	return res, rep
}

// printRun prints every metric by name with its unit, the environment
// and extra figures as one JSON line, and the result object last.
func printRun(w io.Writer, s *spec, res *result, rep *report) {
	fmt.Fprintf(w, "workload %s\n", s.name)
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, e := range []struct{ name, unit string }{
		{"match_latency_p50_us", "us"}, {"match_latency_p99_us", "us"}, {"match_latency_samples", "count"},
		{"failed_frac", "ratio"}, {"host_slowdown", "ratio"}, {"throughput_raw_eps", "ev/s"},
	} {
		if v, ok := rep.Extra[e.name]; ok {
			fmt.Fprintf(w, "  %-34s %16.6g %s (reported)\n", e.name, v, e.unit)
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	b, _ := json.Marshal(rep) // maps of plain values always marshal
	fmt.Fprintln(w, string(b))
	b, _ = json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

// sourceDigest fingerprints the Go sources and module files of the
// checkout the benchmark was built from, so a result names the code it
// measured even where no version-control metadata exists.
func sourceDigest() string {
	const root = "." // the checkout root: run.sh starts the benchmark there
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the fingerprint
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path[len(root):], len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
