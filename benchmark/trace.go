package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanID names a recorded span; 0 is "no span" (no parent, or tracing off).
type spanID int

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program under test.
type span struct {
	name   string
	parent spanID
	// run is shared by every span of one op (evaluation run or session);
	// 0 for set-up and rung spans.
	run int
	// lane keeps concurrent callers on separate tracks of the trace viewer.
	lane       int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// "tracing off": every method is a no-op that reads no clock, which is what
// lets one code path serve the untraced and the traced pass.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(parent spanID, run, lane int, name string) spanID {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, run: run, lane: lane, start: now, end: -1})
	id := spanID(len(t.spans))
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// spanTotals sums, per span name, the spans' durations and their self
// times: a span's duration minus its direct children's.
func (t *tracer) spanTotals() (total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	if t == nil {
		return total, self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent != 0 && s.end >= 0 {
			children[s.parent-1] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		total[s.name] += d.Seconds()
		self[s.name] += (d - children[i]).Seconds()
	}
	return total, self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"id": i + 1, "parent": int(s.parent), "run": s.run},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
