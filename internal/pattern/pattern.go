// Package pattern defines the declarative pattern language recognized by
// the engine: SASE-style patterns combining primitive event types with
// SEQ, AND and OR operators, negation and Kleene-closure modifiers,
// inter-event predicates, and a sliding time window.
//
// A pattern is assembled through a Builder and immutable after Build. The
// planner layers consume only the pattern's structure (positions, their
// types and modifiers, and which predicates connect which positions); the
// evaluation engines additionally use the predicates for match filtering.
//
// Positions and size. Each primitive event in the pattern occupies a
// position (0-based, in declaration order; for SEQ the declaration order
// is the required temporal order). Following the paper's terminology,
// "pattern size" counts positions including Kleene-closure positions and
// excluding negated positions. Negated and Kleene positions are excluded
// from evaluation plans ("core" positions are planned; the rest are
// residual constraints resolved at match emission).
package pattern

import (
	"fmt"
	"math"
	"strings"

	"acep/internal/event"
)

// Op is a pattern operator.
type Op int

const (
	// Seq requires the core events to occur in position order.
	Seq Op = iota
	// And requires all core events within the window, any order.
	And
	// Or is a disjunction of sub-patterns, each detected independently.
	Or
)

// String returns the SASE-style operator keyword.
func (o Op) String() string {
	switch o {
	case Seq:
		return "SEQ"
	case And:
		return "AND"
	case Or:
		return "OR"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Position describes one primitive event slot in a pattern.
type Position struct {
	// Type is the event type (schema index) accepted at this position.
	Type int
	// Neg marks the position as negated: a match is invalid if such an
	// event occurs in the position's temporal scope.
	Neg bool
	// Kleene marks the position as a Kleene-closure position: the match
	// carries all matching events in the temporal scope (at least one).
	Kleene bool
}

// CmpOp enumerates the comparison operators usable in predicates.
type CmpOp int

const (
	// LT is "left < right + C".
	LT CmpOp = iota
	// LE is "left <= right + C".
	LE
	// GT is "left > right + C".
	GT
	// GE is "left >= right + C".
	GE
	// EQ is exact equality "left == right + C".
	EQ
	// NE is "left != right + C".
	NE
	// AbsDiffLT is "|left - right| < C" (binary only).
	AbsDiffLT
)

// String returns the operator symbol.
func (c CmpOp) String() string {
	switch c {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "=="
	case NE:
		return "!="
	case AbsDiffLT:
		return "|-|<"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(c))
	}
}

// Unary marks the right-hand side of a predicate as absent: the left
// attribute is compared against the constant C alone.
const Unary = -1

// Pred is a predicate over one or two pattern positions. For a binary
// predicate the semantics are
//
//	ev[L].Attrs[AttrL]  Op  ev[R].Attrs[AttrR] + C
//
// and for a unary predicate (R == Unary)
//
//	ev[L].Attrs[AttrL]  Op  C.
//
// AbsDiffLT compares |left-right| (binary) or |left| (unary) against C.
type Pred struct {
	L, R         int // positions; R == Unary for unary predicates
	AttrL, AttrR int // attribute indices within the respective types
	Op           CmpOp
	C            float64
}

// IsUnary reports whether the predicate references a single position.
func (p Pred) IsUnary() bool { return p.R == Unary }

// Eval evaluates the predicate. For unary predicates er is ignored and may
// be nil.
func (p Pred) Eval(el, er *event.Event) bool {
	var rv float64
	if !p.IsUnary() {
		rv = er.Attrs[p.AttrR]
	}
	return p.Op.Holds(el.Attrs[p.AttrL], rv, p.C)
}

// Holds evaluates "l c r + off" (|l-r| < off for AbsDiffLT). A unary
// predicate is the case r == 0.
func (c CmpOp) Holds(l, r, off float64) bool {
	switch c {
	case LT:
		return l < r+off
	case LE:
		return l <= r+off
	case GT:
		return l > r+off
	case GE:
		return l >= r+off
	case EQ:
		return l == r+off
	case NE:
		return l != r+off
	case AbsDiffLT:
		return math.Abs(l-r) < off
	default:
		return false
	}
}

// String renders the predicate for diagnostics.
func (p Pred) String() string {
	if p.IsUnary() {
		return fmt.Sprintf("e%d.a%d %s %g", p.L, p.AttrL, p.Op, p.C)
	}
	if p.Op == AbsDiffLT {
		return fmt.Sprintf("|e%d.a%d - e%d.a%d| < %g", p.L, p.AttrL, p.R, p.AttrR, p.C)
	}
	if p.C == 0 {
		return fmt.Sprintf("e%d.a%d %s e%d.a%d", p.L, p.AttrL, p.Op, p.R, p.AttrR)
	}
	return fmt.Sprintf("e%d.a%d %s e%d.a%d%+g", p.L, p.AttrL, p.Op, p.R, p.AttrR, p.C)
}

// Pattern is an immutable compiled pattern. Construct with a Builder (or
// NewOr for disjunctions).
type Pattern struct {
	// Op is the root operator. For Or, only Subs and Window are set.
	Op Op
	// Positions lists the primitive event slots (empty for Or).
	Positions []Position
	// Preds lists all predicates (empty for Or; sub-pattern predicates
	// live in the sub-patterns).
	Preds []Pred
	// Window is the sliding time window: a match is valid iff
	// max(ts)-min(ts) <= Window.
	Window event.Time
	// Subs holds the disjuncts of an Or pattern.
	Subs []*Pattern

	core      []int   // indices of plannable positions
	predsAt   [][]int // predsAt[i]: indices into Preds touching position i
	unaryAt   [][]int // unaryAt[i]: indices of unary preds on position i
	pairPreds map[[2]int][]int

	// Compiled hot-path tables (see compile.go).
	byType  [][]int     // event type -> positions accepting it
	unaryC  [][]CUnary  // per position, fused unary predicate list
	pairC   []PairCheck // flat (new, old) ordered-pair checks
	eqAttrs [][]EqAttr  // per position, exact-equality attributes and classes
}

// NumPositions returns the number of declared positions.
func (p *Pattern) NumPositions() int { return len(p.Positions) }

// Core returns the indices of the plannable (non-negated, non-Kleene)
// positions, in declaration order. The returned slice is shared; callers
// must not modify it.
func (p *Pattern) Core() []int { return p.core }

// Size returns the pattern size per the paper's definition: positions
// including Kleene and excluding negated ones. For Or patterns it returns
// the maximum sub-pattern size.
func (p *Pattern) Size() int {
	if p.Op == Or {
		max := 0
		for _, s := range p.Subs {
			if n := s.Size(); n > max {
				max = n
			}
		}
		return max
	}
	n := 0
	for _, pos := range p.Positions {
		if !pos.Neg {
			n++
		}
	}
	return n
}

// PredsBetween returns the indices (into Preds) of the binary predicates
// connecting positions i and j (order-insensitive). The slice is shared.
func (p *Pattern) PredsBetween(i, j int) []int {
	if i > j {
		i, j = j, i
	}
	return p.pairPreds[[2]int{i, j}]
}

// PredsAt returns the indices of the unary predicates on position i. The
// slice is shared; callers must not modify it.
func (p *Pattern) PredsAt(i int) []int { return p.unaryAt[i] }

// PredsTouching returns indices of all predicates (unary or binary) that
// reference position i. The slice is shared.
func (p *Pattern) PredsTouching(i int) []int { return p.predsAt[i] }

// String renders the pattern in a SASE-like syntax.
func (p *Pattern) String() string {
	var b strings.Builder
	p.format(&b)
	return b.String()
}

func (p *Pattern) format(b *strings.Builder) {
	if p.Op == Or {
		b.WriteString("OR(")
		for i, s := range p.Subs {
			if i > 0 {
				b.WriteString("; ")
			}
			s.format(b)
		}
		fmt.Fprintf(b, ") WITHIN %d", p.Window)
		return
	}
	fmt.Fprintf(b, "%s(", p.Op)
	for i, pos := range p.Positions {
		if i > 0 {
			b.WriteString(", ")
		}
		if pos.Neg {
			b.WriteString("~")
		}
		fmt.Fprintf(b, "T%d", pos.Type)
		if pos.Kleene {
			b.WriteString("*")
		}
	}
	b.WriteString(")")
	if len(p.Preds) > 0 {
		b.WriteString(" WHERE ")
		for i, pr := range p.Preds {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(pr.String())
		}
	}
	fmt.Fprintf(b, " WITHIN %d", p.Window)
}

// finalize computes the derived lookup structures and validates the
// compiled pattern.
func (p *Pattern) finalize(s *event.Schema) error {
	if p.Op == Or {
		if len(p.Subs) < 2 {
			return fmt.Errorf("pattern: OR needs at least 2 sub-patterns, got %d", len(p.Subs))
		}
		if p.Window <= 0 {
			return fmt.Errorf("pattern: OR window must be positive")
		}
		for i, sub := range p.Subs {
			if sub == nil {
				return fmt.Errorf("pattern: OR sub-pattern %d is nil", i)
			}
			if sub.Op == Or {
				return fmt.Errorf("pattern: nested OR is not supported")
			}
		}
		return nil
	}
	if len(p.Positions) == 0 {
		return fmt.Errorf("pattern: no event positions declared")
	}
	if p.Window <= 0 {
		return fmt.Errorf("pattern: window must be positive, got %d", p.Window)
	}
	p.core = p.core[:0]
	for i, pos := range p.Positions {
		if pos.Neg && pos.Kleene {
			return fmt.Errorf("pattern: position %d is both negated and Kleene", i)
		}
		if s != nil && (pos.Type < 0 || pos.Type >= s.NumTypes()) {
			return fmt.Errorf("pattern: position %d has unknown type %d", i, pos.Type)
		}
		if !pos.Neg && !pos.Kleene {
			p.core = append(p.core, i)
		}
	}
	if len(p.core) == 0 {
		return fmt.Errorf("pattern: at least one non-negated, non-Kleene position required")
	}
	p.predsAt = make([][]int, len(p.Positions))
	p.unaryAt = make([][]int, len(p.Positions))
	p.pairPreds = make(map[[2]int][]int)
	residual := func(i int) bool { return p.Positions[i].Neg || p.Positions[i].Kleene }
	for k, pr := range p.Preds {
		if pr.L < 0 || pr.L >= len(p.Positions) {
			return fmt.Errorf("pattern: predicate %d references bad position %d", k, pr.L)
		}
		if s != nil {
			if pr.AttrL < 0 || pr.AttrL >= s.NumAttrs(p.Positions[pr.L].Type) {
				return fmt.Errorf("pattern: predicate %d references bad attribute %d of position %d", k, pr.AttrL, pr.L)
			}
		}
		p.predsAt[pr.L] = append(p.predsAt[pr.L], k)
		if pr.IsUnary() {
			p.unaryAt[pr.L] = append(p.unaryAt[pr.L], k)
			continue
		}
		if pr.R < 0 || pr.R >= len(p.Positions) || pr.R == pr.L {
			return fmt.Errorf("pattern: predicate %d references bad position pair (%d,%d)", k, pr.L, pr.R)
		}
		if residual(pr.L) && residual(pr.R) {
			return fmt.Errorf("pattern: predicate %d connects two negated/Kleene positions (%d,%d); residual positions may only be constrained against positive ones", k, pr.L, pr.R)
		}
		if s != nil {
			if pr.AttrR < 0 || pr.AttrR >= s.NumAttrs(p.Positions[pr.R].Type) {
				return fmt.Errorf("pattern: predicate %d references bad attribute %d of position %d", k, pr.AttrR, pr.R)
			}
		}
		p.predsAt[pr.R] = append(p.predsAt[pr.R], k)
		a, b := pr.L, pr.R
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		p.pairPreds[key] = append(p.pairPreds[key], k)
	}
	p.compile()
	return nil
}

// NewOr builds a disjunction of already-built sub-patterns. Each disjunct
// keeps its own window for evaluation; the Or window is the maximum and is
// used only for reporting.
func NewOr(subs ...*Pattern) (*Pattern, error) {
	p := &Pattern{Op: Or, Subs: subs}
	for _, s := range subs {
		if s != nil && s.Window > p.Window {
			p.Window = s.Window
		}
	}
	if err := p.finalize(nil); err != nil {
		return nil, err
	}
	return p, nil
}
