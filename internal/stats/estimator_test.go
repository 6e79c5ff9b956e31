package stats

import (
	"math"
	"math/rand"
	"testing"

	"acep/internal/event"
	"acep/internal/pattern"
)

func estSchema() *event.Schema {
	s := event.NewSchema()
	s.MustAddType("A", "x")
	s.MustAddType("B", "x")
	s.MustAddType("C", "x")
	return s
}

func estPattern(s *event.Schema) *pattern.Pattern {
	b := pattern.NewBuilder(s, pattern.Seq, 10*event.Second)
	a := b.EventName("A")
	bb := b.EventName("B")
	c := b.EventName("C")
	b.WhereEq(a, "x", bb, "x")
	b.WhereConst(c, "x", pattern.GT, 0.5)
	return b.MustBuild()
}

func TestNewEstimatorRejectsOr(t *testing.T) {
	s := estSchema()
	mk := func() *pattern.Pattern {
		b := pattern.NewBuilder(s, pattern.Seq, event.Second)
		b.EventName("A")
		return b.MustBuild()
	}
	or, _ := pattern.NewOr(mk(), mk())
	if _, err := NewEstimator(or, Config{}); err == nil {
		t.Fatal("estimator accepted OR pattern")
	}
}

func TestEstimatorRates(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	e, err := NewEstimator(pat, Config{Window: 2 * event.Second})
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	// A: every 10ms (100/s), B: every 20ms (50/s), C: every 100ms (10/s).
	var seq uint64
	emit := func(typ int, ts event.Time) {
		ev := s.MustNew(typ, ts, 1)
		ev.Seq = seq
		seq++
		e.Observe(&ev)
	}
	for ts := event.Time(0); ts < 4000; ts += 10 {
		emit(0, ts)
		if ts%20 == 0 {
			emit(1, ts)
		}
		if ts%100 == 0 {
			emit(2, ts)
		}
	}
	snap := e.Snapshot(4000)
	want := []float64{100, 50, 10}
	for i, w := range want {
		if math.Abs(snap.Rates[i]-w)/w > 0.15 {
			t.Errorf("rate[%d] = %.1f; want ~%.0f", i, snap.Rates[i], w)
		}
	}
	if snap.Version != 1 {
		t.Errorf("version = %d; want 1", snap.Version)
	}
	if e.Snapshot(4000).Version != 2 {
		t.Error("version must increase per snapshot")
	}
}

func TestEstimatorSelectivities(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	e, _ := NewEstimator(pat, Config{Window: 5 * event.Second, Alpha: 1, SampleSize: 32})
	r := rand.New(rand.NewSource(42))
	var seq uint64
	emit := func(typ int, ts event.Time, x float64) {
		ev := s.MustNew(typ, ts, x)
		ev.Seq = seq
		seq++
		e.Observe(&ev)
	}
	// A.x and B.x drawn uniformly from {0..9}: P(eq) = 0.1.
	// C.x uniform in [0,1): P(>0.5) = 0.5.
	for ts := event.Time(0); ts < 3000; ts += 5 {
		emit(0, ts, float64(r.Intn(10)))
		emit(1, ts+1, float64(r.Intn(10)))
		emit(2, ts+2, r.Float64())
	}
	snap := e.Snapshot(3000)
	if got := snap.Sel[0][1]; math.Abs(got-0.1) > 0.06 {
		t.Errorf("sel(A,B) = %.3f; want ~0.1", got)
	}
	if got := snap.Sel[1][0]; got != snap.Sel[0][1] {
		t.Error("Sel must be symmetric")
	}
	if got := snap.Sel[2][2]; math.Abs(got-0.5) > 0.2 {
		t.Errorf("unary sel(C) = %.3f; want ~0.5", got)
	}
	if got := snap.Sel[0][2]; got != 1 {
		t.Errorf("sel(A,C) = %.3f; want 1 (no predicate)", got)
	}
}

func TestEstimatorEWMA(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	e, _ := NewEstimator(pat, Config{Alpha: 0.5, SampleSize: 8})
	var seq uint64
	emit := func(typ int, ts event.Time, x float64) {
		ev := s.MustNew(typ, ts, x)
		ev.Seq = seq
		seq++
		e.Observe(&ev)
	}
	// Phase 1: A.x == B.x always -> sel 1.
	for ts := event.Time(0); ts < 100; ts += 5 {
		emit(0, ts, 1)
		emit(1, ts, 1)
	}
	e.Snapshot(100)
	first := e.PredSelectivity(0)
	if first < 0.99 {
		t.Fatalf("phase-1 sel = %.3f; want ~1", first)
	}
	// Phase 2: never equal -> raw 0 (floored), EWMA pulls halfway.
	for ts := event.Time(100); ts < 200; ts += 5 {
		emit(0, ts, 1)
		emit(1, ts, 2)
	}
	e.Snapshot(200)
	second := e.PredSelectivity(0)
	if second > 0.51 || second < 0.4 {
		t.Fatalf("phase-2 sel = %.3f; want ~0.5 after one EWMA step", second)
	}
}

func TestEstimatorMinSelFloor(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	e, _ := NewEstimator(pat, Config{Alpha: 1, MinSel: 0.01, SampleSize: 8})
	var seq uint64
	for ts := event.Time(0); ts < 100; ts += 5 {
		ev := s.MustNew(0, ts, 1)
		ev.Seq = seq
		seq++
		e.Observe(&ev)
		ev2 := s.MustNew(1, ts, 2)
		ev2.Seq = seq
		seq++
		e.Observe(&ev2)
	}
	snap := e.Snapshot(100)
	if got := snap.Sel[0][1]; got != 0.01 {
		t.Errorf("floored sel = %g; want 0.01", got)
	}
}

func TestEstimatorUnseenKeepsOptimistic(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	e, _ := NewEstimator(pat, Config{})
	snap := e.Snapshot(1000)
	if snap.Sel[0][1] != 1 || snap.Sel[2][2] != 1 {
		t.Error("selectivities with no data must stay 1")
	}
	if snap.Rates[0] != 0 {
		t.Error("rates with no data must be 0")
	}
}

func TestExactMatchesConstruction(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	var events []event.Event
	var seq uint64
	add := func(typ int, ts event.Time, x float64) {
		ev := s.MustNew(typ, ts, x)
		ev.Seq = seq
		seq++
		events = append(events, ev)
	}
	// Over 10 seconds: 20 As, 10 Bs, 5 Cs.
	for i := 0; i < 20; i++ {
		add(0, event.Time(i)*500, float64(i%2)) // x alternates 0,1
	}
	for i := 0; i < 10; i++ {
		add(1, event.Time(i)*1000, 0) // x always 0
	}
	for i := 0; i < 5; i++ {
		add(2, event.Time(i)*2000, float64(i)) // x = 0..4; >0.5 for 4 of 5
	}
	snap := Exact(pat, events)
	// Span is 9500ms = 9.5s.
	if math.Abs(snap.Rates[0]-20/9.5) > 1e-9 {
		t.Errorf("rate[A] = %g", snap.Rates[0])
	}
	// P(A.x == B.x): A.x is 0 half the time, B.x always 0 -> 0.5.
	if math.Abs(snap.Sel[0][1]-0.5) > 1e-9 {
		t.Errorf("sel(A,B) = %g; want 0.5", snap.Sel[0][1])
	}
	if math.Abs(snap.Sel[2][2]-0.8) > 1e-9 {
		t.Errorf("unary sel(C) = %g; want 0.8", snap.Sel[2][2])
	}
}

func TestExactEmpty(t *testing.T) {
	s := estSchema()
	pat := estPattern(s)
	snap := Exact(pat, nil)
	if snap.Rates[0] != 0 || snap.Sel[0][1] != 1 {
		t.Error("empty Exact must be zero rates, unit sels")
	}
}

func TestSnapshotCloneAndFlatten(t *testing.T) {
	snap := NewSnapshot(3)
	snap.Rates[0] = 5
	snap.SetSym(0, 1, 0.25)
	c := snap.Clone()
	c.Rates[0] = 99
	c.Sel[0][1] = 0.5
	if snap.Rates[0] != 5 || snap.Sel[0][1] != 0.25 {
		t.Error("Clone must deep-copy")
	}
	flat := snap.Flatten(nil)
	// 3 rates + 6 upper-triangle sels.
	if len(flat) != 9 {
		t.Fatalf("Flatten len = %d; want 9", len(flat))
	}
	if flat[0] != 5 {
		t.Error("Flatten rates first")
	}
	// Sel[0][1] is the second selectivity entry (after Sel[0][0]).
	if flat[4] != 0.25 {
		t.Errorf("flat = %v", flat)
	}
}

func TestSnapshotString(t *testing.T) {
	snap := NewSnapshot(2)
	snap.SetSym(0, 1, 0.5)
	if s := snap.String(); s == "" {
		t.Error("empty String()")
	}
}

// TestPassCountMatchesOldestFirstLoop: walking the sample rings in
// storage order must count exactly what the oldest-first Pred.Eval loop
// over every held pair counts, so the smoothed selectivities stay
// bit-identical. The stream wraps the rings many times and draws values
// that include -0, +0 and NaN.
func TestPassCountMatchesOldestFirstLoop(t *testing.T) {
	s := event.NewSchema()
	for _, name := range []string{"A", "B", "C"} {
		s.MustAddType(name, "x", "y")
	}
	b := pattern.NewBuilder(s, pattern.Seq, 10*event.Second)
	a, bb, c := b.EventName("A"), b.EventName("B"), b.EventName("C")
	b.WhereEq(a, "x", bb, "x")
	b.Where(a, "y", pattern.LT, bb, "y", 0.5)
	b.Where(bb, "x", pattern.GE, c, "y", -1)
	b.Where(a, "x", pattern.NE, c, "x", 0)
	b.Where(bb, "y", pattern.AbsDiffLT, c, "y", 1.5)
	b.Where(a, "y", pattern.EQ, c, "x", 1)
	b.WhereConst(c, "x", pattern.GT, 0.5)
	b.WhereConst(a, "y", pattern.AbsDiffLT, 1)
	pat := b.MustBuild()
	const alpha, minSel = 0.3, 1e-3
	e, err := NewEstimator(pat, Config{SampleSize: 7, Alpha: alpha, MinSel: minSel})
	if err != nil {
		t.Fatal(err)
	}
	// oldestFirst is the held events in arrival order.
	oldestFirst := func(r *sampleRing) []*event.Event {
		var out []*event.Event
		n, first := r.next, 0
		if r.full {
			n, first = len(r.buf), r.next
		}
		for i := 0; i < n; i++ {
			out = append(out, &r.buf[(first+i)%len(r.buf)])
		}
		return out
	}
	want := make([]float64, len(pat.Preds))
	seeded := make([]bool, len(pat.Preds))
	vals := []float64{-2, -1, math.Copysign(0, -1), 0, 0.5, 1, 2, math.NaN()}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		ev := s.MustNew(r.Intn(3), event.Time(i), vals[r.Intn(len(vals))], vals[r.Intn(len(vals))])
		e.Observe(&ev)
		if i%13 != 0 {
			continue
		}
		for k := range pat.Preds {
			pr := pat.Preds[k]
			var pass, total int
			for _, l := range oldestFirst(e.rings[pr.L]) {
				if pr.IsUnary() {
					total++
					if pr.Eval(l, nil) {
						pass++
					}
					continue
				}
				for _, rv := range oldestFirst(e.rings[pr.R]) {
					total++
					if pr.Eval(l, rv) {
						pass++
					}
				}
			}
			if gp, gt := e.passCount(&pat.Preds[k]); gp != pass || gt != total {
				t.Fatalf("event %d pred %v: passCount %d/%d, oldest-first loop %d/%d", i, pr, gp, gt, pass, total)
			}
			if total == 0 {
				continue
			}
			obs := math.Max(float64(pass)/float64(total), minSel)
			if seeded[k] {
				obs = alpha*obs + (1-alpha)*want[k]
			}
			want[k], seeded[k] = obs, true
		}
		e.Snapshot(event.Time(i))
		for k := range pat.Preds {
			if got := e.PredSelectivity(k); seeded[k] && got != want[k] {
				t.Fatalf("event %d pred %v: selectivity %v, want %v", i, pat.Preds[k], got, want[k])
			}
		}
	}
}
