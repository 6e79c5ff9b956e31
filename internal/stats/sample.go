package stats

import "acep/internal/event"

// sampleRing keeps the most recent events observed for one pattern
// position. Selectivity estimation evaluates predicates over pairs drawn
// from two rings; keeping the latest events (rather than a uniform
// reservoir) matches the sliding-window spirit of the other estimators
// and is deterministic, which the tests rely on.
type sampleRing struct {
	buf  []event.Event
	next int
	full bool
}

func newSampleRing(capacity int) *sampleRing {
	if capacity < 1 {
		capacity = 1
	}
	return &sampleRing{buf: make([]event.Event, capacity)}
}

// add records an event (copied by value).
func (r *sampleRing) add(ev *event.Event) {
	r.buf[r.next] = *ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// held returns the events currently held, in storage order: oldest
// first until the ring wraps, rotated after.
func (r *sampleRing) held() []event.Event {
	if r.full {
		return r.buf
	}
	return r.buf[:r.next]
}
