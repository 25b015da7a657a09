package trace

import "sync"

// Ring is a bounded event buffer: the newest cap events are retained,
// older ones are dropped and counted. The serving layer keeps one per
// traced run, so a long run's trace costs bounded memory while the tail
// — the part an engineer debugging a live run actually wants — is always
// available. A Ring is safe for concurrent append and snapshot: the
// engine goroutine appends while HTTP handlers read.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest event
	n       int // events resident
	dropped int64
}

// NewRing returns a ring retaining up to cap events (floored at 1).
func NewRing(cap int) *Ring {
	if cap < 1 {
		cap = 1
	}
	return &Ring{buf: make([]Event, cap)}
}

// Append records an event, evicting the oldest when full.
func (r *Ring) Append(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// Snapshot returns the resident events oldest-first and the count of
// events evicted to make room for them.
func (r *Ring) Snapshot() (events []Event, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	events = make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		events[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return events, r.dropped
}

// Dropped returns how many events have been evicted so far — cheap
// enough to stamp onto every streamed frame, unlike Snapshot.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the number of resident events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}
