package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"acep/internal/oracle"
)

// shortEvents is the stream length of the short mode: every workload,
// every layer and every gate, in seconds rather than minutes.
const shortEvents = 20000

func shortOptions() options { return options{seconds: 0.2, events: shortEvents, warm: 1} }

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkMetrics requires exactly the named metrics, each finite with the
// declared unit.
func checkMetrics(t *testing.T, got map[string]metric, names, units []string) {
	t.Helper()
	if len(got) != len(names) {
		t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(got), len(names))
	}
	for i, n := range names {
		m, ok := got[n]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", n)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", n, m.Value)
		case m.Unit != units[i]:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", n, m.Unit, units[i])
		}
	}
}

func TestShortWorkloads(t *testing.T) {
	f := loadBenchmarkFile(t)
	var e2e, e2eUnits, layer, layerUnits []string
	for _, m := range f.EndToEnd {
		e2e, e2eUnits = append(e2e, m.Name), append(e2eUnits, m.Unit)
	}
	for _, m := range f.PerLayer {
		layer, layerUnits = append(layer, m.Name), append(layerUnits, m.Unit)
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			res, rep := runWorkload(s, 7, shortOptions())
			if !res.Correct || len(rep.Errors) > 0 {
				t.Fatalf("untraced run failed: %v", rep.Errors)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, e2e, e2eUnits)
			for _, n := range e2e {
				if v := res.Metrics[n].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, v)
				}
			}
			res, rep = runTraced(s, 7, shortOptions())
			if !res.Correct || len(rep.Errors) > 0 {
				t.Fatalf("traced run failed: %v", rep.Errors)
			}
			checkMetrics(t, res.Metrics, layer, layerUnits)
		})
	}
}

// TestGateCatchesDroppedMatch drops one match from every pass of the
// measured system and requires the run to fail its correctness gate.
func TestGateCatchesDroppedMatch(t *testing.T) {
	for _, name := range []string{"adapt-keyed-traffic", "cluster-keyed-stocks", "ha-keyed-stocks"} {
		s, err := findSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := shortOptions()
		opts.dropAt = 3
		res, rep := runWorkload(s, 7, opts)
		if res.Correct {
			t.Errorf("%s: a dropped match passed the gate", name)
		}
		if len(rep.Errors) == 0 || !strings.Contains(strings.Join(rep.Errors, "\n"), "matches") {
			t.Errorf("%s: errors %q do not report the match mismatch", name, rep.Errors)
		}
	}
}

// TestOraclePrefixHasMatches keeps the oracle check from going vacuous.
func TestOraclePrefixHasMatches(t *testing.T) {
	for _, s := range specs {
		if s.layer != engineLayer {
			continue
		}
		for _, seed := range []int64{1, 7} {
			in := newInput(s, seed, shortEvents)
			pat, err := in.pattern()
			if err != nil {
				t.Fatal(err)
			}
			if n := len(oracle.Matches(pat, in.w.Events[:s.oracleEvents])); n == 0 {
				t.Errorf("%s seed %d: the oracle finds no match in the first %d events", s.name, seed, s.oracleEvents)
			}
		}
	}
}

// TestSpecsMatchBenchmarkFile keeps BENCHMARK.json, the workload table
// and the predictions in step.
func TestSpecsMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, specs[i].name)
		}
	}
	var boundSetup, maxBound float64
	for _, m := range f.EndToEnd {
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			boundSetup = m.Bound
		}
	}
	if boundSetup == 0 || boundSetup < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", boundSetup, maxBound)
	}
	b, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Predictions []struct {
			Metric string   `json:"metric"`
			On     []string `json:"on"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(b, &p); err != nil {
		t.Fatal(err)
	}
	var predicted []string
	for _, e := range p.Predictions {
		predicted = append(predicted, e.Metric)
		for _, w := range e.On {
			if _, err := findSpec(w); err != nil {
				t.Errorf("prediction for %s: %v", e.Metric, err)
			}
		}
	}
	for _, m := range f.PerLayer {
		if !slices.Contains(predicted, m.Name) {
			t.Errorf("per-layer metric %s has no prediction", m.Name)
		}
	}
}
