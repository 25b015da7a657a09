package otrace

import (
	"encoding/json"
	"io"
	"strconv"
)

// Node is a span with its children resolved — the JSON tree shape
// GET /runs/{id}/spans serves.
type Node struct {
	Span
	Children []*Node `json:"children,omitempty"`
}

// Tree builds the span forest. Spans arrive in start order (parents
// before children, an invariant of the buffer), so one pass suffices.
// A span whose parent is unknown — dropped under buffer pressure, or a
// remote orphan — is promoted to a root rather than lost.
func Tree(spans []Span) []*Node {
	byID := make(map[SpanID]*Node, len(spans))
	var roots []*Node
	for i := range spans {
		n := &Node{Span: spans[i]}
		byID[n.ID] = n
		if parent, ok := byID[n.Parent]; ok && n.Parent != 0 {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// chromeEvent is one Chrome trace-event ("X" = complete event with
// duration). about://tracing and https://ui.perfetto.dev both load the
// {"traceEvents": [...]} envelope WriteChrome emits.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome renders spans as Chrome trace events. Spans carrying a
// "shard" attribute land on track shard+1 so each worker gets its own
// flamegraph row; everything else (the engine loop) is track 0. Open
// spans (DurNanos < 0) render with zero duration rather than being
// hidden — a truncated run should still show where it stopped.
func WriteChrome(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, 0, len(spans))
	for i := range spans {
		sp := &spans[i]
		var tid int64
		if shard, ok := sp.AttrInt("shard"); ok {
			tid = shard + 1
		}
		args := make(map[string]string, len(sp.Attrs)+2)
		for _, a := range sp.Attrs {
			args[a.Key] = a.value()
		}
		args["span_id"] = strconv.FormatUint(uint64(sp.ID), 10)
		if sp.CPUNanos > 0 {
			args["cpu_ms"] = strconv.FormatFloat(float64(sp.CPUNanos)/1e6, 'f', 3, 64)
		}
		dur := sp.DurNanos
		if dur < 0 {
			dur = 0
		}
		events = append(events, chromeEvent{
			Name: sp.Name,
			Cat:  "zombie",
			Ph:   "X",
			TS:   float64(sp.StartUnixNano) / 1e3,
			Dur:  float64(dur) / 1e3,
			PID:  1,
			TID:  tid,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Events          []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
