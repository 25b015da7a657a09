package otrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsValidEverywhere(t *testing.T) {
	var tr *Tracer
	ref := tr.Start(0, "anything", String("k", "v"))
	if ref.ID() != 0 {
		t.Fatalf("nil tracer span ID = %d, want 0", ref.ID())
	}
	ref.End(Int("n", 1)) // must not panic
	if got := tr.Traceparent(0); got != "" {
		t.Fatalf("nil Traceparent = %q, want empty", got)
	}
	if spans, dropped := tr.Snapshot(); spans != nil || dropped != 0 {
		t.Fatalf("nil Snapshot = %v, %d", spans, dropped)
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.TraceID() != "" {
		t.Fatal("nil accessors should all be zero")
	}
	if tr.Import([]Span{{ID: 1}}, 0, 0) != 0 {
		t.Fatal("nil Import should record nothing")
	}
}

func TestSpanRecordingAndOrder(t *testing.T) {
	tr := New("run-1", 16)
	root := tr.Start(0, "run", String("task", "wiki"))
	child := tr.Start(root.ID(), "batch")
	child.End(Dur("ns.extract", 5*time.Millisecond))
	root.End()

	spans, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "run" || spans[1].Name != "batch" {
		t.Fatalf("buffer order = %q, %q; want start order run, batch", spans[0].Name, spans[1].Name)
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("child parent = %d, want %d", spans[1].Parent, spans[0].ID)
	}
	if spans[0].DurNanos < spans[1].DurNanos || spans[1].DurNanos < 0 {
		t.Fatalf("durations: root %d, child %d", spans[0].DurNanos, spans[1].DurNanos)
	}
	if v, ok := spans[1].AttrInt("ns.extract"); !ok || v != int64(5*time.Millisecond) {
		t.Fatalf("End attrs not appended: %v", spans[1].Attrs)
	}
	if _, ok := spans[0].Attr("task"); !ok {
		t.Fatalf("Start attrs lost: %v", spans[0].Attrs)
	}
}

func TestBoundedBufferKeepsFirstAndCountsDrops(t *testing.T) {
	tr := New("run-2", 3)
	for i := 0; i < 10; i++ {
		tr.Start(0, "s").End()
	}
	spans, dropped := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want cap 3", len(spans))
	}
	if dropped != 7 {
		t.Fatalf("dropped = %d, want exactly 7", dropped)
	}
	// Keep-first: the earliest spans survive, so IDs are 1..3.
	for i, sp := range spans {
		if sp.ID != SpanID(i+1) {
			t.Fatalf("span %d has ID %d; keep-first should retain the earliest", i, sp.ID)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New("run-3", 8)
	ref := tr.Start(0, "rpc")
	hdr := tr.Traceparent(ref.ID())
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent %q not W3C-shaped", hdr)
	}
	traceID, parent, ok := ParseTraceparent(hdr)
	if !ok || traceID != tr.TraceID() || parent != ref.ID() {
		t.Fatalf("round trip: ok=%v traceID=%q parent=%d; want %q/%d", ok, traceID, parent, tr.TraceID(), ref.ID())
	}
	for _, bad := range []string{
		"", "00", "01-" + tr.TraceID() + "-0000000000000001-01",
		"00-zzzz-0000000000000001-01",
		"00-" + tr.TraceID() + "-zzzzzzzzzzzzzzzz-01",
		strings.Repeat("x", 55),
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent(%q) accepted malformed input", bad)
		}
	}
}

func TestTraceIDDeterministic(t *testing.T) {
	if New("run-x", 8).TraceID() != New("run-x", 8).TraceID() {
		t.Fatal("same seed should derive the same trace ID")
	}
	if New("run-x", 8).TraceID() == New("run-y", 8).TraceID() {
		t.Fatal("different seeds should derive different trace IDs")
	}
}

func TestImportRemapsUnderRPCSpan(t *testing.T) {
	coord := New("run-4", 64)
	rpc := coord.Start(0, "dist.step_batch")
	sent := rpc.ID()

	// Worker-side: a request tracer parented at the propagated ID.
	_, parent, ok := ParseTraceparent(coord.Traceparent(sent))
	if !ok {
		t.Fatal("propagated header should parse")
	}
	wtr := New("req", 64)
	wroot := wtr.Start(parent, "worker.step_batch", Int("shard", 2))
	wchild := wtr.Start(wroot.ID(), "worker.read")
	wchild.End()
	wroot.End()
	wspans, _ := wtr.Snapshot()

	if n := coord.Import(wspans, sent, sent); n != 2 {
		t.Fatalf("imported %d spans, want 2", n)
	}
	rpc.End()

	spans, _ := coord.Snapshot()
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	w := byName["worker.step_batch"]
	if w.Parent != sent {
		t.Fatalf("worker root stitched under %d, want rpc span %d", w.Parent, sent)
	}
	r := byName["worker.read"]
	if r.Parent != w.ID {
		t.Fatalf("worker child parent = %d, want remapped %d", r.Parent, w.ID)
	}
	if w.ID == wspans[0].ID && r.ID == wspans[1].ID {
		t.Fatal("imported spans should get fresh local IDs")
	}
}

func TestTreePromotesOrphans(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "run"},
		{ID: 2, Parent: 1, Name: "batch"},
		{ID: 4, Parent: 99, Name: "orphan"}, // parent dropped
	}
	roots := Tree(spans)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want run + promoted orphan", len(roots))
	}
	if roots[0].Name != "run" || len(roots[0].Children) != 1 || roots[0].Children[0].Name != "batch" {
		t.Fatalf("tree shape wrong: %+v", roots[0])
	}
	if roots[1].Name != "orphan" {
		t.Fatalf("orphan not promoted: %+v", roots[1])
	}
}

func TestBuildCostAggregatesCells(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "run", DurNanos: int64(10 * time.Second), CPUNanos: int64(4 * time.Second)},
		{ID: 2, Parent: 1, Name: "batch", DurNanos: 1, CPUNanos: int64(2 * time.Second),
			Attrs: []Attr{
				Dur("ns.extract", 3*time.Second),
				Dur("ns.train", 1*time.Second),
			}},
		{ID: 3, Parent: 1, Name: "worker.step_batch", DurNanos: 1,
			Attrs: []Attr{
				Int("shard", 1),
				Dur("ns.extract", 2*time.Second),
			}},
		{ID: 4, Parent: 1, Name: "part", DurNanos: 1,
			Attrs: []Attr{
				Int("shard", 1),
				String("part", "tokens"),
				Dur("ns.extract", 1500*time.Millisecond),
			}},
	}
	sum := BuildCost(spans, 5)
	if sum.SpanCount != 4 || sum.SpansDropped != 5 {
		t.Fatalf("span bookkeeping: %+v", sum)
	}
	if sum.WallSeconds != 10 || sum.CPUSeconds != 4 {
		t.Fatalf("totals from root span: wall=%v cpu=%v", sum.WallSeconds, sum.CPUSeconds)
	}
	find := func(phase string, shard int, part string) *CostCell {
		for i := range sum.Cells {
			c := &sum.Cells[i]
			if c.Phase == phase && c.Shard == shard && c.Part == part {
				return c
			}
		}
		t.Fatalf("missing cell (%s, %d, %q) in %+v", phase, shard, part, sum.Cells)
		return nil
	}
	if c := find("extract", -1, ""); c.WallSeconds != 3 || c.CPUSeconds != 1.5 {
		t.Fatalf("coordinator extract cell: %+v (CPU should be wall-share apportioned)", c)
	}
	if c := find("train", -1, ""); c.WallSeconds != 1 || c.CPUSeconds != 0.5 {
		t.Fatalf("train cell: %+v", c)
	}
	if c := find("extract", 1, ""); c.WallSeconds != 2 {
		t.Fatalf("shard extract cell: %+v", c)
	}
	if c := find("extract", 1, "tokens"); c.WallSeconds != 1.5 {
		t.Fatalf("part cell: %+v", c)
	}
}

func TestWriteChromeEmitsLoadableJSON(t *testing.T) {
	tr := New("run-5", 16)
	root := tr.Start(0, "run")
	tr.Start(root.ID(), "worker.step_batch", Int("shard", 3)).End()
	root.End()
	spans, _ := tr.Snapshot()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TID  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output not JSON: %v", err)
	}
	if len(doc.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.Events))
	}
	for _, ev := range doc.Events {
		if ev.Ph != "X" {
			t.Fatalf("event %q phase %q, want complete events", ev.Name, ev.Ph)
		}
	}
	if doc.Events[1].TID != 4 {
		t.Fatalf("shard 3 should render on track 4, got %d", doc.Events[1].TID)
	}
}

func TestOnSpanObserves(t *testing.T) {
	tr := New("run-6", 2)
	var recorded, dropped int
	tr.OnSpan(func(ok bool) {
		if ok {
			recorded++
		} else {
			dropped++
		}
	})
	for i := 0; i < 5; i++ {
		tr.Start(0, "s").End()
	}
	if recorded != 2 || dropped != 3 {
		t.Fatalf("observer saw recorded=%d dropped=%d, want 2/3", recorded, dropped)
	}
}
