package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"slices"
	"strconv"
	"sync"

	"zombie/internal/bandit"
	"zombie/internal/core"
	"zombie/internal/fault"
	"zombie/internal/obs"
	"zombie/internal/otrace"
	"zombie/internal/recipe"
	"zombie/internal/runstore"
)

// --- journal record model ---

// Journal record types, one per lifecycle transition. ("run-quarantine",
// journaled per quarantined input until PR 13, is retired: nothing read
// its reduction. Journals that still hold it replay — unknown types are
// skipped.) A session version is a run (ID <session>.v<N>) and journals
// run-* records; the version-* types are what versions journaled before
// that, and only persistState.applyLegacy reads them.
const (
	recRunSubmit  = "run-submit"
	recRunDiscard = "run-discard"
	recRunStart   = "run-start"
	recRunPoint   = "run-point"
	recRunRequeue = "run-requeue"
	recRunFinish  = "run-finish"
	recSessCreate = "session-create"
	recVerSubmit  = "version-submit"
	recVerStart   = "version-start"
	recVerFinish  = "version-finish"
)

// walRecord is one lifecycle transition — the unit the live objects, the
// store's replica and start-up replay all reduce. A single shape covers
// every record type; unused fields are omitted from the JSON.
type walRecord struct {
	Type string `json:"t"`
	// ID is the run ID for run-* records, the session ID for the rest.
	ID string `json:"id,omitempty"`
	// Num is the ID's numeric suffix (submit/create records), feeding
	// next-ID recovery; a version's run-submit carries none.
	Num int `json:"num,omitempty"`
	// At is the transition's wall-clock time in unix nanoseconds.
	At int64 `json:"at,omitempty"`

	Spec     *RunSpec         `json:"spec,omitempty"`
	Point    *core.CurvePoint `json:"point,omitempty"`
	State    RunState         `json:"state,omitempty"`
	Err      string           `json:"err,omitempty"`
	Summary  *runSummary      `json:"summary,omitempty"`
	TimedOut bool             `json:"timed_out,omitempty"`

	// Session is a session-create's spec. Ver and Recipe are a version's
	// index and recipe, on its run-submit (and on legacy version-* records).
	Session *SessionSpec   `json:"session,omitempty"`
	Ver     int            `json:"ver,omitempty"`
	Recipe  *recipe.Spec   `json:"recipe,omitempty"`
	Result  *versionResult `json:"result,omitempty"` // legacy version-finish only

	// Process-local attachments a live transition hands its owner together
	// with the record (Run.transition installs them under the same lock);
	// unexported, so never serialised: the cancel hook a run-start arms and
	// the engine result a run-finish leaves for /events and Result().
	cancel context.CancelFunc
	result *core.RunResult
}

// runSummary is the digest of a terminal run's engine result, written
// once — at finish, from the result — and the only source RunInfo's
// summary fields render from, in the process that ran the engine and in
// every later one alike.
type runSummary struct {
	InputsProcessed int                `json:"inputs"`
	FinalQuality    float64            `json:"quality"`
	Stop            string             `json:"stop,omitempty"`
	Strategy        string             `json:"strategy,omitempty"`
	CacheHits       int64              `json:"cache_hits,omitempty"`
	CacheMisses     int64              `json:"cache_misses,omitempty"`
	Quarantined     int                `json:"quarantined,omitempty"`
	PhaseMillis     map[string]float64 `json:"phase_ms,omitempty"`
	// A session version's digest also keeps what the next version reads:
	// the arm snapshots it warm-starts from, and this version's diff and
	// warm start for the session view.
	Arms      []bandit.ArmSnapshot   `json:"arms,omitempty"`
	Diff      *recipe.Diff           `json:"diff,omitempty"`
	WarmStart *recipe.WarmStartStats `json:"warm_start,omitempty"`
}

// runDigest digests an engine result for the run-finish record, nil when
// the run finished without one (failed before the engine produced it, or
// cancelled while queued). ver is the recipe version a session version's
// result came from, nil for every other run.
func runDigest(res *core.RunResult, ver *recipe.Version) *runSummary {
	if res == nil {
		return nil
	}
	sum := &runSummary{
		InputsProcessed: res.InputsProcessed,
		FinalQuality:    res.FinalQuality,
		Stop:            res.Stop.String(),
		Strategy:        res.Strategy,
		CacheHits:       res.CacheHits,
		CacheMisses:     res.CacheMisses,
		Quarantined:     len(res.Quarantined),
		PhaseMillis:     res.Phases.Millis(),
	}
	if ver != nil {
		sum.Arms = res.Arms
		sum.Diff, sum.WarmStart = &ver.Diff, &ver.WarmStart
	}
	return sum
}

// --- lifecycle records and their reducers ---

// runRecord is a run's whole serialisable lifecycle: spec, state,
// timestamps (unix nanoseconds), live curve and terminal digest. A Run
// holds one by value under its mutex, the store's replica holds one per
// run, and both advance it through apply only.
type runRecord struct {
	ID        string            `json:"id"`
	Spec      RunSpec           `json:"spec"`
	State     RunState          `json:"state"`
	Created   int64             `json:"created"`
	Started   int64             `json:"started,omitempty"`
	Finished  int64             `json:"finished,omitempty"`
	Curve     []core.CurvePoint `json:"curve,omitempty"`
	Err       string            `json:"err,omitempty"`
	Summary   *runSummary       `json:"summary,omitempty"`
	TimedOut  bool              `json:"timed_out,omitempty"`
	Recovered int               `json:"recovered,omitempty"`
	// Ver and Recipe are set for a session version: its 1-based index in
	// the session and the recipe it runs.
	Ver    int          `json:"ver,omitempty"`
	Recipe *recipe.Spec `json:"recipe,omitempty"`
}

// newRunRecord is the run-submit transition: a queued run.
func newRunRecord(rec *walRecord) runRecord {
	return runRecord{ID: rec.ID, Spec: *rec.Spec, State: StateQueued, Created: rec.At, Ver: rec.Ver, Recipe: rec.Recipe}
}

// versionRunID is the run ID of a session's version ver.
func versionRunID(sessionID string, ver int) string {
	return sessionID + ".v" + strconv.Itoa(ver)
}

// apply is the run state machine: queued → running → {done, failed,
// cancelled}, the shortcut queued → cancelled, and requeue (any
// non-terminal state → queued) for recovery. It reports whether rec was
// legal in the current state and leaves the record untouched when not —
// a start that lost to a cancel, a second finish. Nothing else assigns a
// run's lifecycle fields.
func (r *runRecord) apply(rec *walRecord) bool {
	switch rec.Type {
	case recRunStart:
		if r.State != StateQueued {
			return false
		}
		r.State = StateRunning
		r.Started = rec.At
		// Every engine start emits the complete curve from scratch, so a
		// requeued run's stale partial points must not survive the
		// transition (a crash → requeue → re-execute journal sequence
		// replays through here).
		r.Curve = nil
	case recRunPoint:
		if r.State != StateRunning || rec.Point == nil {
			return false
		}
		r.Curve = append(r.Curve, *rec.Point)
	case recRunRequeue:
		if r.State.terminal() {
			return false
		}
		r.State = StateQueued
		r.Started, r.Finished = 0, 0
		r.Curve = nil
		r.Err = ""
		r.Recovered++
	case recRunFinish:
		if r.State.terminal() || !rec.State.terminal() {
			return false
		}
		r.State = rec.State
		r.Err = rec.Err
		r.Finished = rec.At
		r.Summary = rec.Summary
		r.TimedOut = rec.TimedOut
	default:
		return false
	}
	return true
}

// persistState is the control plane's durable state: the reduction of
// every journaled transition. The durable store applies each record to
// its own copy as it journals, and recovery replays the journal (after a
// legacy snapshot, where an older server left one) through the same
// apply method — replay equivalence by construction.
// RunOrder lists POST /runs submissions only; a session's versions are
// found by their IDs.
type persistState struct {
	NextRunID     int                        `json:"next_run_id,omitempty"`
	NextSessionID int                        `json:"next_session_id,omitempty"`
	Runs          map[string]*runRecord      `json:"runs,omitempty"`
	RunOrder      []string                   `json:"run_order,omitempty"`
	Sessions      map[string]*persistSession `json:"sessions,omitempty"`
	SessionOrder  []string                   `json:"session_order,omitempty"`
}

type persistSession struct {
	ID      string      `json:"id"`
	Spec    SessionSpec `json:"spec"`
	Created int64       `json:"created"`
	// Versions is the legacy snapshot form of the session's versions;
	// restore moves it into Runs, and nothing writes it.
	Versions []*versionRecord `json:"versions,omitempty"`
}

func newPersistState() *persistState {
	return &persistState{
		Runs:     map[string]*runRecord{},
		Sessions: map[string]*persistSession{},
	}
}

// apply routes one record to the table entry it addresses and reports
// whether it applied. Records of unknown type or referencing unknown IDs
// are skipped, not errors: a legacy snapshot taken after a discard, or a
// journal from another server version, must not brick recovery.
func (st *persistState) apply(rec *walRecord) bool {
	switch rec.Type {
	case recRunSubmit:
		if rec.Spec == nil {
			return false
		}
		r := newRunRecord(rec)
		st.Runs[rec.ID] = &r
		if rec.Ver == 0 {
			st.RunOrder = append(st.RunOrder, rec.ID)
			st.NextRunID = max(st.NextRunID, rec.Num)
		}
	case recRunDiscard:
		if st.Runs[rec.ID] == nil {
			return false
		}
		delete(st.Runs, rec.ID)
		if i := slices.Index(st.RunOrder, rec.ID); i >= 0 {
			st.RunOrder = slices.Delete(st.RunOrder, i, i+1)
		}
	case recRunStart, recRunPoint, recRunRequeue, recRunFinish:
		r := st.Runs[rec.ID]
		return r != nil && r.apply(rec)
	case recSessCreate:
		if rec.Session == nil {
			return false
		}
		st.Sessions[rec.ID] = &persistSession{ID: rec.ID, Spec: *rec.Session, Created: rec.At}
		st.SessionOrder = append(st.SessionOrder, rec.ID)
		st.NextSessionID = max(st.NextSessionID, rec.Num)
	default:
		return st.applyLegacy(rec)
	}
	return true
}

// --- the legacy version format ---

// versionRecord and versionResult are how a session version was
// persisted before versions became runs: a snapshot's
// sessions[].versions list, and a version-finish record's digest. They
// are decoded, translated onto runs and never written.
type versionRecord struct {
	Index    int            `json:"index"`
	State    RunState       `json:"state"`
	Err      string         `json:"err,omitempty"`
	Recipe   *recipe.Spec   `json:"recipe,omitempty"`
	Started  int64          `json:"started,omitempty"`
	Finished int64          `json:"finished,omitempty"`
	Result   *versionResult `json:"result,omitempty"`
}

type versionResult struct {
	Curve       []core.CurvePoint     `json:"curve,omitempty"`
	Final       float64               `json:"final"`
	Inputs      int                   `json:"inputs"`
	Stop        int                   `json:"stop"`
	CacheHits   int64                 `json:"cache_hits,omitempty"`
	CacheMisses int64                 `json:"cache_misses,omitempty"`
	Diff        *recipe.Diff          `json:"diff,omitempty"`
	WarmStart   recipe.WarmStartStats `json:"warm_start"`
	Arms        []bandit.ArmSnapshot  `json:"arms,omitempty"`
}

// summary is the run digest a legacy version result translates to.
func (v *versionResult) summary() *runSummary {
	if v == nil {
		return nil
	}
	ws := v.WarmStart
	return &runSummary{InputsProcessed: v.Inputs, FinalQuality: v.Final, Stop: core.StopReason(v.Stop).String(),
		CacheHits: v.CacheHits, CacheMisses: v.CacheMisses, Arms: v.Arms, Diff: v.Diff, WarmStart: &ws}
}

// applyLegacy is the one legacy translation: a version-* record becomes
// the run transition it stands for on run <session>.v<N> (any other type
// is unknown, and skipped). A version-start on a running version was the
// old restart, so it is a requeue plus a start; a version-finish carries
// the curve its run never journaled as points.
func (st *persistState) applyLegacy(rec *walRecord) bool {
	s := st.Sessions[rec.ID]
	if s == nil {
		return false
	}
	id := versionRunID(rec.ID, rec.Ver)
	r := st.Runs[id]
	switch {
	case rec.Type == recVerSubmit:
		spec := s.Spec.runSpec()
		return st.apply(&walRecord{Type: recRunSubmit, ID: id, Spec: &spec, Ver: rec.Ver, Recipe: rec.Recipe})
	case r == nil:
		return false
	case rec.Type == recVerStart:
		if r.State == StateRunning {
			r.apply(&walRecord{Type: recRunRequeue})
		}
		return r.apply(&walRecord{Type: recRunStart, At: rec.At})
	case rec.Type == recVerFinish && r.apply(&walRecord{Type: recRunFinish, At: rec.At, State: rec.State, Err: rec.Err, Summary: rec.Result.summary()}):
		if rec.Result != nil {
			r.Curve = rec.Result.Curve
		}
		return true
	}
	return false
}

// applyLegacyVersions translates a legacy snapshot's version list for
// session sid: each version as the records that left it in its state.
func (st *persistState) applyLegacyVersions(sid string, versions []*versionRecord) {
	for _, v := range versions {
		if v == nil {
			continue
		}
		st.applyLegacy(&walRecord{Type: recVerSubmit, ID: sid, Ver: v.Index, Recipe: v.Recipe})
		if v.State != StateQueued {
			st.applyLegacy(&walRecord{Type: recVerStart, ID: sid, Ver: v.Index, At: v.Started})
		}
		st.applyLegacy(&walRecord{Type: recVerFinish, ID: sid, Ver: v.Index, At: v.Finished, State: v.State, Err: v.Err, Result: v.Result})
	}
}

// restore loads a legacy snapshot body; its version lists go through the
// legacy translation into runs.
func (st *persistState) restore(snapshot []byte) error {
	if err := json.Unmarshal(snapshot, st); err != nil {
		return err
	}
	if st.Runs == nil {
		st.Runs = map[string]*runRecord{}
	}
	if st.Sessions == nil {
		st.Sessions = map[string]*persistSession{}
	}
	for sid, s := range st.Sessions {
		if s != nil {
			st.applyLegacyVersions(sid, s.Versions)
			s.Versions = nil
		}
	}
	return nil
}

// replay decodes one journal payload and applies it.
func (st *persistState) replay(payload []byte) error {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("server: decode journal record: %w", err)
	}
	st.apply(&rec)
	return nil
}

// clone deep-copies the state via its own JSON form, giving recovery an
// immutable view while the live store keeps mutating its copy.
func (st *persistState) clone() *persistState {
	out := newPersistState()
	b, err := json.Marshal(st)
	if err != nil {
		return out
	}
	json.Unmarshal(b, out) //nolint:errcheck // round-trip of our own encoding
	return out
}

// --- durable store ---

// journalErrorLimit is how many journal write failures the store absorbs
// before demoting itself to memory-only — the same one-way ladder the
// extraction cache's disk store uses. A demoted store keeps the control
// plane running; it just stops surviving restarts.
const journalErrorLimit = 3

// DurableStore makes the control plane survive a restart: every lifecycle
// record the Manager and SessionHub hand it is applied to its own replica
// (a persistState, reduced by the same apply the live objects use) and
// appended to a write-ahead journal, which is the whole durable state: a
// restart replays it. The replica is the check that the journal never
// holds a record replay would refuse — a record the replica rejects is
// not journaled. Journal failures never propagate to runs; after
// journalErrorLimit of them the store demotes itself to memory-only for
// the rest of the process. A nil *DurableStore is the server without a
// state directory: record and Close are no-ops on it.
type DurableStore struct {
	store   *runstore.Store
	metrics *Metrics
	faults  *fault.Injector
	log     *slog.Logger

	mu      sync.Mutex
	state   *persistState
	errors  int
	demoted bool
	frozen  bool
	appends uint64 // fault-site keying
}

// OpenDurableStore opens (creating if needed) the journal in dir, replays
// it after any legacy snapshot there, and returns the store plus an
// immutable copy of the recovered state for the Manager and SessionHub to
// restore from. A corrupt snapshot or a corrupt or unreadable journal is
// an error: silently starting empty, or from what precedes the damage,
// would orphan the very state the flag exists to keep. A non-nil tracer
// (the server's process tracer) records runstore durability spans: the
// startup recovery replay, plus every journal append.
func OpenDurableStore(dir string, metrics *Metrics, faults *fault.Injector, log *slog.Logger, tracer *otrace.Tracer) (*DurableStore, *persistState, error) {
	if log == nil {
		log = obs.NopLogger()
	}
	if metrics == nil {
		metrics = NewMetrics(nil)
	}
	ds := &DurableStore{state: newPersistState(), metrics: metrics, faults: faults, log: log}
	st, err := runstore.OpenTraced(dir, ds.state.restore, ds.state.replay, tracer)
	if err != nil {
		return nil, nil, err
	}
	ds.store = st
	return ds, ds.state.clone(), nil
}

// record applies one transition to the replica and journals it. Callers
// hand over records their own copy already accepted; one the replica
// rejects is not journaled either, so replay can never diverge from the
// replica. The replica always advances — a demoted (or frozen) store still
// serves the process, it just stops persisting.
func (ds *DurableStore) record(rec *walRecord) {
	if ds == nil {
		return
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if !ds.state.apply(rec) || ds.demoted || ds.frozen {
		return
	}
	payload, err := json.Marshal(rec)
	if err == nil {
		ds.appends++
		id := fmt.Sprintf("%s#%d", rec.Type, ds.appends)
		if ferr := ds.faults.Fire(fault.SiteJournalWrite, id); ferr != nil {
			err = ferr
		} else {
			err = ds.store.Append(payload)
		}
	}
	if err != nil {
		ds.journalErrorLocked(err)
	}
}

// journalErrorLocked tallies one journal failure and demotes the store —
// one way, for the rest of the process — once the limit is hit.
func (ds *DurableStore) journalErrorLocked(err error) {
	ds.errors++
	ds.metrics.JournalErrors.Add(1)
	ds.log.Warn("run journal write failed", "error", err.Error(), "errors", ds.errors)
	if ds.errors >= journalErrorLimit && !ds.demoted {
		ds.demoted = true
		ds.log.Error("run journal demoted to memory-only; state will not survive a restart",
			"errors", ds.errors)
	}
}

// JournalBytes / JournalRecords / Demoted expose the journal's state for
// metrics gauges.
func (ds *DurableStore) JournalBytes() int64 { return ds.store.JournalBytes() }

func (ds *DurableStore) JournalRecords() int { return ds.store.JournalRecords() }

func (ds *DurableStore) Demoted() bool {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.demoted
}

// Close closes the journal. Every append is already on disk, so a
// graceful close writes nothing: the next startup replays the journal.
func (ds *DurableStore) Close() error {
	if ds == nil {
		return nil
	}
	return ds.store.Close()
}
