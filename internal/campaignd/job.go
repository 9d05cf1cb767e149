package campaignd

// Job state and durability. A job is one submitted scenario campaign,
// backed by a directory under <data>/jobs/<id>:
//
//	spec            the submitted scenario bytes, verbatim
//	state.json      the job's metadata and state (atomic replace)
//	checkpoint.json core's crash-safe sweep checkpoint: an append-only
//	                log, a header line then one JSON line per committed
//	                point; a torn final line is cut off on load
//	events.ndjson   the point-event log, one JSON line per committed
//	                point, fsynced before any watcher sees the event
//	report.txt      the final rendering, written once on completion
//
// Everything a restarted server needs is in that directory: the spec
// re-parses and re-compiles deterministically, the checkpoint restores
// completed points bit-identically, and the event log preserves the
// stream offsets watchers hold — a client reconnecting across a kill -9
// with `Last-Point: k` receives exactly the events it has not seen,
// because an event is appended and fsynced before it is broadcast.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"tocttou/internal/core"
	"tocttou/internal/scenario"
)

// Job states. queued and running jobs resume after a restart; done,
// failed, and asserted states are terminal. interrupted marks a job the
// draining server stopped at a point boundary — a restart resumes it
// from its checkpoint.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
)

// terminalState reports whether a job in this state will make no further
// progress on this server instance. interrupted is terminal for event
// streams (the server is draining) but resumes after a restart.
func terminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateInterrupted
}

// JobInfo is a job's client-visible metadata, served by the submit, get,
// and list endpoints and persisted (minus Cached) as state.json.
type JobInfo struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Filename    string `json:"filename"`
	State       string `json:"state"`
	SubmittedAt string `json:"submitted_at"`
	// Points is the compiled grid size; Committed counts point events in
	// the log; Memoized counts points the engine copied instead of
	// simulating (in-process dedupe plus checkpoint-restored copies).
	Points    int `json:"points"`
	Committed int `json:"committed"`
	Memoized  int `json:"memoized"`
	// Cached marks a submit response served from the completed store:
	// an identical re-submission of a finished campaign re-runs nothing.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure for state "failed"; Watchdog flags that
	// the failure was a virtual-time watchdog expiry (a diagnosed
	// runaway round), surfaced so operators can tell runaways from bugs.
	Error    string `json:"error,omitempty"`
	Watchdog bool   `json:"watchdog,omitempty"`
	// AssertionFailure carries the first failed spec assertion for an
	// otherwise completed campaign (the report still renders).
	AssertionFailure string `json:"assertion_failure,omitempty"`
	// Quarantined lists poison point indices a worker fleet set aside
	// after repeated worker kills (fleet mode only): the campaign is done,
	// but these points have no committed result.
	Quarantined []int `json:"quarantined,omitempty"`
}

// PointEvent is one committed sweep point on the NDJSON event stream.
// Seq is the event's position in the job's log: a client that has
// received k events resumes with `Last-Point: k` and is replayed the
// log's suffix — no duplicates, no drops, across server restarts.
type PointEvent struct {
	Type         string  `json:"type"` // "point"
	Seq          int     `json:"seq"`
	Point        int     `json:"point"`
	Label        string  `json:"label"`
	Rounds       int     `json:"rounds"`
	Successes    int     `json:"successes"`
	Rate         float64 `json:"rate"`
	VictimErrors int     `json:"victim_errors"`
	AttackErrors int     `json:"attack_errors"`
}

// EndEvent terminates an event stream: the job reached a state in which
// this server instance will emit no further point events.
type EndEvent struct {
	Type             string `json:"type"` // "end"
	State            string `json:"state"`
	Points           int    `json:"points"`
	Committed        int    `json:"committed"`
	Memoized         int    `json:"memoized"`
	Error            string `json:"error,omitempty"`
	Watchdog         bool   `json:"watchdog,omitempty"`
	AssertionFailure string `json:"assertion_failure,omitempty"`
	Quarantined      []int  `json:"quarantined,omitempty"`
}

// job is the server-side state of one campaign.
type job struct {
	id  string
	dir string

	mu       sync.Mutex
	info     JobInfo
	spec     *scenario.Spec
	compiled *scenario.Compiled
	events   []json.RawMessage // encoded PointEvents, log order
	seen     map[int]bool      // point index -> already in the log
	update   chan struct{}     // closed and replaced on every change
	report   []byte            // final rendering, once done
	elog     *os.File          // events.ndjson append handle while running
}

func newJob(id, dir string, spec *scenario.Spec, compiled *scenario.Compiled, filename, submittedAt string) *job {
	return &job{
		id:  id,
		dir: dir,
		info: JobInfo{
			ID:          id,
			Name:        spec.Name,
			Filename:    filename,
			State:       StateQueued,
			SubmittedAt: submittedAt,
			Points:      len(compiled.Points),
		},
		spec:     spec,
		compiled: compiled,
		seen:     make(map[int]bool),
		update:   make(chan struct{}),
	}
}

func (j *job) specPath() string       { return filepath.Join(j.dir, "spec") }
func (j *job) statePath() string      { return filepath.Join(j.dir, "state.json") }
func (j *job) checkpointPath() string { return filepath.Join(j.dir, "checkpoint.json") }
func (j *job) eventsPath() string     { return filepath.Join(j.dir, "events.ndjson") }
func (j *job) reportPath() string     { return filepath.Join(j.dir, "report.txt") }

// snapshot returns the job's current info under its lock.
func (j *job) snapshot() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// bump wakes every stream blocked on this job.
func (j *job) bump() {
	close(j.update)
	j.update = make(chan struct{})
}

// setState transitions the job and persists state.json. Call without
// j.mu held.
func (j *job) setState(mutate func(*JobInfo)) error {
	j.mu.Lock()
	mutate(&j.info)
	info := j.info
	j.bump()
	j.mu.Unlock()
	return writeJSONAtomic(j.statePath(), info)
}

// endEventLocked builds the stream-terminating event for a terminal
// state. Caller holds j.mu.
func (j *job) endEventLocked() json.RawMessage {
	ev := EndEvent{
		Type:             "end",
		State:            j.info.State,
		Points:           j.info.Points,
		Committed:        j.info.Committed,
		Memoized:         j.info.Memoized,
		Error:            j.info.Error,
		Watchdog:         j.info.Watchdog,
		AssertionFailure: j.info.AssertionFailure,
		Quarantined:      j.info.Quarantined,
	}
	data, err := json.Marshal(ev)
	if err != nil {
		// EndEvent is plain values; Marshal cannot fail. Keep the stream
		// well-formed regardless.
		data = []byte(`{"type":"end","state":"failed","error":"internal: end event encoding"}`)
	}
	return data
}

// commitPoint appends one committed point to the event log: durable
// first (append + fsync), visible second (broadcast). Replayed
// completions of points already in the log — checkpoint-restored points
// on resume — are skipped, so the log holds every point exactly once.
func (j *job) commitPoint(p int, res core.CampaignResult) (appended bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seen[p] {
		return false, nil
	}
	j.seen[p] = true
	ev := PointEvent{
		Type:         "point",
		Seq:          len(j.events),
		Point:        p,
		Label:        j.compiled.Meta[p].Label,
		Rounds:       res.Rounds,
		Successes:    res.Successes,
		Rate:         res.Rate(),
		VictimErrors: res.VictimErrors,
		AttackErrors: res.AttackErrors,
	}
	line, merr := json.Marshal(ev)
	if merr != nil {
		return false, merr
	}
	if j.elog != nil {
		if _, werr := j.elog.Write(append(line, '\n')); werr != nil {
			return false, werr
		}
		if serr := j.elog.Sync(); serr != nil {
			return false, serr
		}
	}
	j.events = append(j.events, line)
	j.info.Committed = len(j.events)
	j.bump()
	return true, nil
}

// openEventLog opens the append handle commitPoint writes through.
func (j *job) openEventLog() error {
	f, err := os.OpenFile(j.eventsPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.elog = f
	j.mu.Unlock()
	return nil
}

func (j *job) closeEventLog() {
	j.mu.Lock()
	f := j.elog
	j.elog = nil
	j.mu.Unlock()
	if f != nil {
		f.Close()
	}
}

// loadJob restores a job from its directory. Jobs in a non-terminal (or
// interrupted) state re-parse and re-compile their spec — both are
// deterministic — so the returned job is ready to resume from its
// checkpoint; a spec that no longer parses (a hand-edited directory)
// surfaces as a failed job rather than a crashed server.
func loadJob(dir string) (*job, error) {
	var info JobInfo
	data, err := os.ReadFile(filepath.Join(dir, "state.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, fmt.Errorf("%s: corrupt state.json: %w", dir, err)
	}
	info.Cached = false
	j := &job{
		id:     info.ID,
		dir:    dir,
		info:   info,
		seen:   make(map[int]bool),
		update: make(chan struct{}),
	}
	if err := j.loadEventLog(); err != nil {
		return nil, err
	}
	specData, err := os.ReadFile(j.specPath())
	if err != nil {
		return nil, err
	}
	spec, perr := scenario.LoadBytes(info.Filename, specData)
	if perr == nil {
		j.spec = spec
		j.compiled, perr = scenario.Compile(spec)
	}
	if perr != nil {
		j.info.State = StateFailed
		j.info.Error = fmt.Sprintf("stored spec no longer loads: %v", perr)
		return j, writeJSONAtomic(j.statePath(), j.info)
	}
	if j.info.State == StateDone {
		if j.report, err = os.ReadFile(j.reportPath()); err != nil {
			// The state said done but the report is gone: re-run from the
			// checkpoint (every point restores; only the rendering redoes).
			j.report = nil
			j.info.State = StateInterrupted
		}
	}
	return j, nil
}

// loadEventLog replays events.ndjson into the in-memory log. A torn
// final line (kill -9 between write and sync) is dropped; its point is
// still in the checkpoint, so the resumed run re-emits it.
func (j *job) loadEventLog() error {
	data, err := os.ReadFile(j.eventsPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, line := range splitLines(data) {
		var ev PointEvent
		if json.Unmarshal(line, &ev) != nil || ev.Type != "point" {
			break // torn tail: everything after it re-emits from the checkpoint
		}
		j.events = append(j.events, json.RawMessage(line))
		j.seen[ev.Point] = true
	}
	j.info.Committed = len(j.events)
	return nil
}

// splitLines splits complete newline-terminated lines; a trailing
// fragment without its newline is excluded (torn by a crash mid-append).
func splitLines(data []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				lines = append(lines, data[start:i])
			}
			start = i + 1
		}
	}
	return lines
}

// writeJSONAtomic marshals v and atomically replaces path (temp file +
// rename, as core does when it creates a checkpoint's header).
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
