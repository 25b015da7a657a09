// Package otrace is zombie's dependency-free span tracer: the layer that
// answers "where inside this run did the time and CPU go" once work fans
// out across batches, shards, cache tiers, and the journal. A span is an
// id, a parent, a name, a start time, a wall duration, a process-CPU
// delta, and a small bag of string attributes. Spans live in a bounded
// per-run buffer; when the buffer fills, new spans are counted as dropped
// rather than evicting old ones, so the root of the tree (the run span
// and its early structure) always survives — the opposite policy from
// trace.Ring, which keeps the newest events because its consumers tail a
// live stream.
//
// Tracing is observational by construction: a Tracer only reads clocks
// and appends to its own buffer, so curves, arms, and quarantine lists
// are byte-identical with tracing on or off (test-asserted), and a nil
// *Tracer is valid everywhere and records nothing — the same contract
// the phase observer follows.
//
// Cross-process propagation uses the W3C traceparent format
// ("00-{trace-id}-{parent-id}-01"): the dist coordinator injects it into
// every /dist/* request (HTTP header and wire field), workers open child
// spans under the propagated parent and return them in the response, and
// Import stitches them back into the coordinator's buffer under the rpc
// span that carried the call — one run-wide tree across processes and
// both transports.
package otrace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// SpanID identifies a span within one trace. ID 0 is "no span" — the
// parent of a root span, and the ID every nil-safe accessor returns.
type SpanID uint64

// Attr is one key/value annotation on a span. Values are strings on the
// wire; numeric attributes use the Int/Dur constructors and read back via
// AttrInt, so the cost summary can aggregate them without a type system.
// Int/Dur keep the raw number and render the decimal string lazily at
// read/marshal time — attribute construction is on the span hot path and
// must not pay a FormatInt allocation per value.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`

	num   int64
	isNum bool
}

// value returns the attribute's string form, rendering numeric
// attributes on demand.
func (a Attr) value() string {
	if a.isNum {
		return strconv.FormatInt(a.num, 10)
	}
	return a.Val
}

// MarshalJSON renders the wire form {"k":...,"v":...}, materializing
// lazy numeric values. Unmarshalling uses the default decoder and yields
// a plain string attribute, which AttrInt still parses — the round trip
// loses nothing.
func (a Attr) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Key string `json:"k"`
		Val string `json:"v"`
	}{a.Key, a.value()})
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, num: v, isNum: true} }

// Dur builds a duration attribute, recorded as integer nanoseconds.
func Dur(k string, d time.Duration) Attr { return Int(k, int64(d)) }

// Span is one completed (or still-open, DurNanos < 0) operation.
// Timestamps are integer nanoseconds so spans round-trip JSON unchanged
// across the dist wire.
type Span struct {
	ID            SpanID `json:"id"`
	Parent        SpanID `json:"parent,omitempty"`
	Name          string `json:"name"`
	StartUnixNano int64  `json:"start_unix_ns"`
	DurNanos      int64  `json:"dur_ns"`
	CPUNanos      int64  `json:"cpu_ns,omitempty"`
	Attrs         []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute and whether it exists.
func (s *Span) Attr(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.value(), true
		}
	}
	return "", false
}

// AttrInt returns the named attribute parsed as an int64.
func (s *Span) AttrInt(key string) (int64, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			if a.isNum {
				return a.num, true
			}
			n, err := strconv.ParseInt(a.Val, 10, 64)
			if err != nil {
				return 0, false
			}
			return n, true
		}
	}
	return 0, false
}

// Tracer is a bounded per-run span buffer. All methods are safe for
// concurrent use and all are no-ops on a nil receiver, so call sites
// never branch on whether tracing is enabled.
type Tracer struct {
	traceID string
	cap     int

	mu      sync.Mutex
	nextID  SpanID
	spans   []Span
	dropped int64

	// arena is chunked backing storage for span attrs: each recorded span
	// carves a capacity-capped sub-slice out of the current chunk, so attr
	// storage costs one allocation per chunk instead of one per span —
	// span garbage is what pushes GC onto the engine's otherwise
	// allocation-free inner loop.
	arena []Attr

	// cpuVal/cpuAt cache the process-CPU clock so span bookkeeping costs
	// two time.Now reads, not two getrusage syscalls (~0.5µs each — real
	// money when the engine opens a span per batch). The clock is
	// re-sampled at most once per cpuSampleInterval of wall time; spans
	// shorter than that read a CPU delta of 0, which loses nothing — the
	// kernel only accounts CPU at scheduler-tick granularity anyway.
	cpuVal time.Duration
	cpuAt  time.Time

	// onSpan, when set, observes every Start outcome (recorded or
	// dropped) — the obs-registry layering hook, outside the lock's
	// critical path concerns since it is two counter increments.
	onSpan func(recorded bool)
}

// DefaultCapacity bounds a run's span buffer when the caller does not
// choose one: generous enough for thousands of batches plus stitched
// worker spans, small enough (~200B/span) to never matter per run.
const DefaultCapacity = 8192

// cpuSampleInterval bounds how often the tracer reads the process-CPU
// clock. CPU deltas are exact to within this much wall time; sub-interval
// spans report 0.
const cpuSampleInterval = 200 * time.Microsecond

// arenaChunk is how many Attrs each arena chunk holds (~200KB). A batch
// span reserves ~9, so one chunk serves a few hundred spans.
const arenaChunk = 4096

// reserveAttrs carves an attr slice with the given length/capacity out of
// the arena. Caller holds t.mu. The returned slice's capacity is capped,
// so a span appending past its reservation regrows privately instead of
// clobbering a neighbor's attrs.
func (t *Tracer) reserveAttrs(n, capacity int) []Attr {
	if capacity > arenaChunk {
		return make([]Attr, n, capacity)
	}
	if len(t.arena)+capacity > cap(t.arena) {
		t.arena = make([]Attr, 0, arenaChunk)
	}
	at := len(t.arena)
	t.arena = t.arena[:at+capacity]
	return t.arena[at : at+n : at+capacity]
}

// sampledCPU returns the cached process-CPU reading, refreshing it when
// the cache is older than cpuSampleInterval. Caller holds t.mu.
func (t *Tracer) sampledCPU(now time.Time) time.Duration {
	if t.cpuAt.IsZero() || now.Sub(t.cpuAt) >= cpuSampleInterval {
		t.cpuVal = processCPU()
		t.cpuAt = now
	}
	return t.cpuVal
}

// New returns a tracer whose trace ID is derived deterministically from
// seed (a run ID works well — the same run always maps to the same trace
// ID, which makes smoke tests and log correlation trivial). capacity <= 0
// uses DefaultCapacity.
func New(seed string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	sum := sha256.Sum256([]byte(seed))
	// Reserve the buffer up front (bounded for outsized capacities): a
	// run-scoped tracer at DefaultCapacity is under a megabyte, and
	// growing by doubling would shed garbage on the engine's otherwise
	// allocation-free inner loop.
	reserve := capacity
	if reserve > 8*DefaultCapacity {
		reserve = 8 * DefaultCapacity
	}
	return &Tracer{
		traceID: hex.EncodeToString(sum[:16]),
		cap:     capacity,
		spans:   make([]Span, 0, reserve),
	}
}

// OnSpan registers fn to observe every span start (recorded=false means
// the buffer was full and the span was counted as dropped). Used to layer
// the tracer under the obs registry without importing it.
func (t *Tracer) OnSpan(fn func(recorded bool)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onSpan = fn
	t.mu.Unlock()
}

// TraceID returns the 32-hex-char trace ID ("" for nil).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// SpanRef is a handle to a started span. A nil *SpanRef (from a nil
// tracer, or a dropped span's children) is valid: End is a no-op and ID
// returns 0.
type SpanRef struct {
	t        *Tracer
	id       SpanID
	idx      int // index in t.spans; valid only when recorded
	start    time.Time
	startCPU time.Duration
	recorded bool
}

// ID returns the span's ID (0 for nil).
func (s *SpanRef) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Start opens a span under parent (0 = root). The span is appended to
// the buffer immediately — buffer order is start order, so parents
// precede children and tree builders need no sort. When the buffer is
// full the span is counted as dropped but still gets a real ID, so its
// children keep a consistent parent chain (they surface as orphans in
// the tree, attached to the root).
func (t *Tracer) Start(parent SpanID, name string, attrs ...Attr) *SpanRef {
	if t == nil {
		return nil
	}
	ref := &SpanRef{}
	t.StartInto(ref, time.Now(), parent, name, attrs...)
	return ref
}

// StartInto is Start for hot loops: it fills a caller-owned SpanRef
// instead of allocating one, and takes the caller's clock reading instead
// of its own — the engine's batch loop already reads time.Now at batch
// start, so one read serves the select-phase timer and the span.
func (t *Tracer) StartInto(ref *SpanRef, now time.Time, parent SpanID, name string, attrs ...Attr) {
	if t == nil {
		*ref = SpanRef{}
		return
	}
	t.mu.Lock()
	cpu := t.sampledCPU(now)
	t.nextID++
	id := t.nextID
	idx := len(t.spans)
	recorded := idx < t.cap
	if recorded {
		// Copy attrs into span-owned arena storage with headroom for the
		// attrs End will append — no per-span allocation, and the caller's
		// variadic array can stay on its stack.
		var owned []Attr
		if len(attrs) > 0 {
			owned = t.reserveAttrs(len(attrs), len(attrs)+8)
			copy(owned, attrs)
		}
		// The buffer never evicts (keep-first), so this index stays valid
		// for the span's whole life — End addresses the slot directly
		// instead of going through an open-span map.
		t.spans = append(t.spans, Span{
			ID:            id,
			Parent:        parent,
			Name:          name,
			StartUnixNano: now.UnixNano(),
			DurNanos:      -1,
			Attrs:         owned,
		})
	} else {
		t.dropped++
	}
	fn := t.onSpan
	t.mu.Unlock()
	if fn != nil {
		fn(recorded)
	}
	*ref = SpanRef{t: t, id: id, idx: idx, start: now, startCPU: cpu, recorded: recorded}
}

// End closes the span, recording its wall duration, the process-CPU
// delta since Start, and any extra attributes (appended after the ones
// given to Start). Ending a nil or dropped span is a no-op.
func (s *SpanRef) End(attrs ...Attr) {
	if s == nil || !s.recorded {
		return
	}
	now := time.Now()
	dur := now.Sub(s.start)
	t := s.t
	t.mu.Lock()
	cpu := t.sampledCPU(now) - s.startCPU
	if cpu < 0 {
		cpu = 0
	}
	sp := &t.spans[s.idx]
	sp.DurNanos = int64(dur)
	sp.CPUNanos = int64(cpu)
	sp.Attrs = append(sp.Attrs, attrs...)
	t.mu.Unlock()
}

// Import stitches spans recorded in another process into this buffer.
// Every imported span gets a fresh local ID; a parent equal to
// sentParent (the ID this tracer propagated in the traceparent) — or any
// parent the remote buffer never defined — maps to under, so remote
// roots land beneath the rpc span that carried the call. Returns how
// many spans were recorded (the rest counted as dropped).
func (t *Tracer) Import(spans []Span, sentParent, under SpanID) int {
	if t == nil || len(spans) == 0 {
		return 0
	}
	t.mu.Lock()
	idmap := make(map[SpanID]SpanID, len(spans))
	recorded := 0
	for _, sp := range spans {
		t.nextID++
		id := t.nextID
		// Resolve the parent before registering this span's own ID:
		// remote IDs are a different namespace and may collide with
		// sentParent or with this very span. A parent the remote buffer
		// defined earlier wins; anything else (the propagated parent,
		// or a dropped remote ancestor) lands under the rpc span.
		parent := under
		if mapped, ok := idmap[sp.Parent]; ok {
			parent = mapped
		}
		idmap[sp.ID] = id
		if len(t.spans) < t.cap {
			sp.ID = id
			sp.Parent = parent
			t.spans = append(t.spans, sp)
			recorded++
		} else {
			t.dropped++
		}
	}
	fn := t.onSpan
	t.mu.Unlock()
	if fn != nil {
		for i := 0; i < len(spans); i++ {
			fn(i < recorded)
		}
	}
	return recorded
}

// Snapshot returns a copy of the recorded spans (in start order) and the
// dropped count. Open spans appear with DurNanos == -1.
func (t *Tracer) Snapshot() ([]Span, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		// Attrs may still be appended to by End; copy defensively.
		if len(out[i].Attrs) > 0 {
			attrs := make([]Attr, len(out[i].Attrs))
			copy(attrs, out[i].Attrs)
			out[i].Attrs = attrs
		}
	}
	return out, t.dropped
}

// Len returns the number of recorded spans (0 for nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans the bounded buffer refused.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Header is the HTTP header (and wire field name) that carries the
// propagated trace context, per the W3C Trace Context spec.
const Header = "traceparent"

// Traceparent renders the propagation header for a call parented at the
// given span: "00-{trace-id 32 hex}-{parent-id 16 hex}-01". Returns ""
// for a nil tracer, which callers treat as "tracing off" and omit the
// header entirely.
func (t *Tracer) Traceparent(parent SpanID) string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("00-%s-%016x-01", t.traceID, uint64(parent))
}

// ParseTraceparent decodes a traceparent header. ok is false for any
// malformed value — a worker then simply runs untraced, it never fails
// the request over telemetry.
func ParseTraceparent(s string) (traceID string, parent SpanID, ok bool) {
	// 00-<32 hex>-<16 hex>-<2 hex> = 55 bytes with three dashes.
	if len(s) != 55 || s[0:3] != "00-" || s[35] != '-' || s[52] != '-' {
		return "", 0, false
	}
	traceID = s[3:35]
	if _, err := hex.DecodeString(traceID); err != nil {
		return "", 0, false
	}
	id, err := strconv.ParseUint(s[36:52], 16, 64)
	if err != nil {
		return "", 0, false
	}
	return traceID, SpanID(id), true
}
