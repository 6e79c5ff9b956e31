package nfa

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"acep/internal/event"
	"acep/internal/oracle"
	"acep/internal/pattern"
	"acep/internal/plan"
)

// allOrders returns every permutation of positions.
func allOrders(positions []int) [][]int {
	if len(positions) <= 1 {
		return [][]int{append([]int(nil), positions...)}
	}
	var out [][]int
	for i, p := range positions {
		rest := append(append([]int(nil), positions[:i]...), positions[i+1:]...)
		for _, tail := range allOrders(rest) {
			out = append(out, append([]int{p}, tail...))
		}
	}
	return out
}

// checkAgainstOracle runs pat under every order of its core positions
// over several random streams whose x values come from vals, and
// compares each match set, Kleene sets included, with the oracle's.
func checkAgainstOracle(t *testing.T, pat *pattern.Pattern, s *event.Schema, vals []float64, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	weights := make([]int, s.NumTypes())
	for i := range weights {
		weights[i] = 1
	}
	matched := 0
	for trial := 0; trial < 6; trial++ {
		evs := genStream(r, s, weights, 150, len(vals), 4)
		for i := range evs {
			evs[i].Attrs[0] = vals[int(evs[i].Attrs[0])]
		}
		want := sortedKeys(oracle.Matches(pat, evs))
		matched += len(want)
		for _, order := range allOrders(pat.Core()) {
			out, _ := runEngine(pat, plan.NewOrderPlan(order), evs)
			if got := sortedKeys(out); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d order %v: %d matches, oracle %d\ngot:  %v\nwant: %v",
					trial, order, len(got), len(want), got, want)
			}
		}
	}
	if matched == 0 {
		t.Fatal("no matches in any trial; the comparison is vacuous")
	}
}

// keyedStates lists the states of pat under order that are partitioned.
func keyedStates(pat *pattern.Pattern, order []int) []int {
	g := New(pat, plan.NewOrderPlan(order), nil)
	var out []int
	for s, ki := range g.keys {
		if ki != nil {
			out = append(out, s)
		}
	}
	return out
}

func TestKeyIndexSignedZeroAndNaN(t *testing.T) {
	s := mkSchema(3)
	pat := seqChainPattern(s, 3, 60)
	if got := keyedStates(pat, []int{2, 0, 1}); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("keyed states %v; want [1 2] (0 joins 2 through 1)", got)
	}
	negZero := math.Copysign(0, -1)
	checkAgainstOracle(t, pat, s, []float64{negZero, 0, math.NaN(), 1}, 31)
}

func TestKeyIndexOffsetEqualityIsNotAKey(t *testing.T) {
	s := mkSchema(3)
	b := pattern.NewBuilder(s, pattern.Seq, 60)
	for i := 0; i < 3; i++ {
		b.Event(i)
	}
	b.WherePred(pattern.Pred{L: 0, R: 1, Op: pattern.EQ, C: 1})
	b.WherePred(pattern.Pred{L: 1, R: 2, Op: pattern.EQ})
	pat := b.MustBuild()
	if got := keyedStates(pat, []int{0, 1, 2}); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("keyed states %v; want [2] (only 1 == 2 is exact)", got)
	}
	checkAgainstOracle(t, pat, s, []float64{0, 1, 2, 3}, 32)
}

func TestKeyIndexConjunction(t *testing.T) {
	s := mkSchema(3)
	b := pattern.NewBuilder(s, pattern.And, 60)
	for i := 0; i < 3; i++ {
		b.Event(i)
	}
	b.WherePred(pattern.Pred{L: 0, R: 1, Op: pattern.EQ})
	b.WherePred(pattern.Pred{L: 2, R: 1, Op: pattern.EQ})
	pat := b.MustBuild()
	checkAgainstOracle(t, pat, s, []float64{0, 1, 2}, 33)
}

// TestKeyIndexChainThroughResidual: A.x == B.x and B.x == C.x with B
// negated or Kleene do not make A.x == C.x, so the state filling C after
// A stays one list.
func TestKeyIndexChainThroughResidual(t *testing.T) {
	for _, kleene := range []bool{false, true} {
		s := mkSchema(3)
		b := pattern.NewBuilder(s, pattern.Seq, 60)
		b.Event(0)
		mid := b.Event(1)
		b.Event(2)
		if kleene {
			b.Kleene(mid)
		} else {
			b.Negate(mid)
		}
		b.WherePred(pattern.Pred{L: 0, R: mid, Op: pattern.EQ})
		b.WherePred(pattern.Pred{L: mid, R: 2, Op: pattern.EQ})
		pat := b.MustBuild()
		for _, order := range [][]int{{0, 2}, {2, 0}} {
			if got := keyedStates(pat, order); got != nil {
				t.Fatalf("kleene=%v order %v: keyed states %v; want none", kleene, order, got)
			}
		}
		checkAgainstOracle(t, pat, s, []float64{0, 1}, 34)
	}
}

// TestKeyIndexCutsPredEvals guards against a silent fallback to full
// scans: on a fixed 16-key stream the partitioned engine must evaluate
// fewer than half the predicates the single-list engine did (pinned
// from the single-list engine on this stream).
func TestKeyIndexCutsPredEvals(t *testing.T) {
	s := mkSchema(4)
	pat := seqChainPattern(s, 4, 200)
	evs := genStream(rand.New(rand.NewSource(11)), s, []int{1, 1, 1, 1}, 4000, 16, 4)
	for _, tc := range []struct {
		order  []int
		before uint64
	}{
		{[]int{0, 1, 2, 3}, 39239},
		{[]int{2, 0, 3, 1}, 458151},
	} {
		_, st := runEngine(pat, plan.NewOrderPlan(tc.order), evs)
		if st.Emitted != 422 {
			t.Fatalf("order %v: %d matches; the single-list engine found 422", tc.order, st.Emitted)
		}
		if st.PredEvals >= tc.before/2 {
			t.Errorf("order %v: %d predicate evaluations; want < %d, half the single-list engine's %d",
				tc.order, st.PredEvals, tc.before/2, tc.before)
		}
	}
}
