package core

// Crash-safe sweep checkpointing. A checkpoint file is an append-only
// NDJSON log of a sweep's committed per-point results. Its first line is
// a header (schema version, sweep fingerprint, point count), written by
// temp file + rename when the file is created, so a headerless file never
// exists. Every time a point finishes (the onPointDone hook, which fires
// exactly once per completed point, in commit order, and never for points
// cut short by cancellation), one entry line for that point alone is
// appended with a single write, so a flush costs the same however many
// points the file already holds. Resuming validates the header against
// the sweep configuration, restores the recorded points verbatim, and
// runs only the remainder. A torn final line (a crash mid-append) is
// dropped and the file truncated back to its last whole line, so later
// appends start on a line boundary. Because each point's result depends
// solely on its own scenario and seed (workers share nothing across
// points but the pool), any whole-line prefix of the log is a valid
// checkpoint and the merged output is bit-identical to an uninterrupted
// run.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
)

// checkpointVersion guards the on-disk schema.
const checkpointVersion = 2

// checkpointHeader is the log's first line: the sweep it belongs to.
type checkpointHeader struct {
	Version     int    `json:"version"`
	Fingerprint uint64 `json:"fingerprint"`
	Points      int    `json:"points"`
}

// checkpointEntry is every later line: one committed point.
type checkpointEntry struct {
	Point  int            `json:"point"`
	Result CampaignResult `json:"result"`
}

// RunSweepPointsCheckpoint is RunSweepPoints with opt-in crash-safe
// checkpointing. With an empty path it is RunSweepPoints exactly. With a
// path, completed points already recorded in the file are restored
// without re-simulation, the remaining points run as a sub-sweep whose
// completions are appended to the file as they commit, and the merged
// results are bit-identical to an uninterrupted RunSweepPoints over the
// same points (per-point results never depend on other points). The
// returned SweepStats covers only the work this call performed; restored
// points contribute nothing to it.
//
// A file written for a different sweep (point count, scenarios, seeds,
// budgets, or adaptive config) is rejected by fingerprint, not silently
// merged. SuccessCheck, NewGuard, and Chooser hooks cannot be
// fingerprinted (they are code); resuming with different hook behavior is
// the caller's responsibility, as with any seed-reuse mistake.
func RunSweepPointsCheckpoint(points []SweepPoint, opt SweepOptions, path string) ([]CampaignResult, SweepStats, error) {
	if path == "" {
		return RunSweepPoints(points, opt)
	}
	w, done, err := openCheckpointWriter(path, sweepFingerprint(points, opt.Adaptive), len(points))
	if err != nil {
		return nil, SweepStats{}, err
	}

	results := make([]CampaignResult, len(points))
	// A restored point can stand in for an identically-configured pending
	// one exactly as in-process memoization would (memo.go states the
	// conditions): the copy is flushed to the file like a simulated
	// completion and the duplicate never re-runs, so a resumed sweep does
	// not re-simulate — or double-count — work the first run already
	// recorded for the same configuration.
	var restored map[memoKey]CampaignResult
	memoOK := !memoObservable(opt)
	if memoOK {
		restored = make(map[memoKey]CampaignResult, len(done))
	}
	for i := range points {
		if res, ok := done[i]; ok {
			results[i] = res
			if memoOK {
				if k, keyable := memoKeyOf(points[i]); keyable {
					restored[k] = res
				}
			}
		}
	}
	var remaining []SweepPoint
	var remapped []int // remapped[subIdx] = original point index
	restoredCopies := 0
	for i, p := range points {
		if res, ok := done[i]; ok {
			// Restored points replay through the public completion hook in
			// ascending index order, before any simulation: a resumed sweep's
			// observer (the campaign service's event stream) sees every
			// point exactly once, whether it was simulated this run or last.
			if opt.OnPointDone != nil {
				opt.OnPointDone(i, res)
			}
			continue
		}
		if memoOK && p.Rounds > 0 {
			if k, keyable := memoKeyOf(p); keyable {
				if res, hit := restored[k]; hit {
					results[i] = res
					w.flush(i, res)
					if opt.OnPointDone != nil {
						opt.OnPointDone(i, res)
					}
					restoredCopies++
					continue
				}
			}
		}
		remaining = append(remaining, p)
		remapped = append(remapped, i)
	}
	if len(remaining) == 0 {
		st := SweepStats{PointsMemoized: restoredCopies}
		if werr := w.firstErr(); werr != nil {
			return nil, st, fmt.Errorf("core: checkpoint: %w", werr)
		}
		return results, st, nil
	}

	sub := opt
	user := opt.OnPointDone
	sub.OnPointDone = nil // re-dispatched below with the caller's indices
	sub.onPointDone = func(p int, res CampaignResult) {
		w.flush(remapped[p], res)
		if user != nil {
			user(remapped[p], res)
		}
	}
	subRes, st, err := RunSweepPoints(remaining, sub)
	st.PointsMemoized += restoredCopies
	if werr := w.firstErr(); werr != nil {
		// A checkpoint that cannot be written is a failed run: continuing
		// would silently drop the crash-safety the caller asked for.
		return nil, st, fmt.Errorf("core: checkpoint: %w", werr)
	}
	if err != nil {
		if se, ok := sweepErrorAs(err); ok {
			// Translate the sub-sweep's point index back to the caller's.
			return nil, st, &SweepError{Point: remapped[se.Point], Round: se.Round, Seed: se.Seed, Err: se.Err}
		}
		return nil, st, err
	}
	for si, r := range subRes {
		results[remapped[si]] = r
	}
	return results, st, nil
}

// SweepFingerprint is the FNV-1a hash of a sweep's result-determining
// configuration — the same value the checkpoint file embeds. External
// result stores (the campaign service's completed-job cache) key on it:
// two sweeps with equal fingerprints run bit-identical campaigns, modulo
// the code-valued hooks the hash cannot see (SuccessCheck, NewGuard,
// Chooser — it records only their presence).
func SweepFingerprint(points []SweepPoint, ad AdaptiveStop) uint64 {
	return sweepFingerprint(points, ad)
}

// sweepFingerprint hashes the sweep-shaping configuration: everything
// plain-valued that changes per-point results. Function and interface
// fields (SuccessCheck, NewGuard, Chooser) are code and cannot be hashed.
func sweepFingerprint(points []SweepPoint, ad AdaptiveStop) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d n=%d adaptive=%v|", checkpointVersion, len(points), ad)
	for _, p := range points {
		hashPoint(h, p)
	}
	return h.Sum64()
}

// hashPoint writes one point's result-determining record into a
// fingerprint hash — the shared unit of sweepFingerprint and the
// exported per-point PointFingerprint (subset.go), so the two can never
// drift apart.
func hashPoint(h io.Writer, p SweepPoint) {
	sc := p.Scenario
	victim, attacker := "", ""
	if sc.Victim != nil {
		victim = sc.Victim.Name()
	}
	if sc.Attacker != nil {
		attacker = sc.Attacker.Name()
	}
	fmt.Fprintf(h, "r=%d m=%s/%d v=%s a=%s sys=%s size=%d seed=%d trace=%v su=%v uid=%d gid=%d load=%d nice=%d chooser=%v ph=%d ns=%v sb=%d hz=%v wd=%v faults=%v|",
		p.Rounds, sc.Machine.Name, sc.Machine.CPUs, victim, attacker,
		sc.UseSyscall, sc.FileSize, sc.Seed, sc.Trace, sc.VictimStartupMax,
		sc.AttackerUID, sc.AttackerGID, sc.LoadThreads, sc.AttackerNice,
		sc.Chooser != nil, sc.PhaseSlots, sc.NoiseSlots, sc.StallBound,
		sc.Horizon, sc.Watchdog, sc.Faults)
}

// loadCheckpoint opens the checkpoint log at path for a sweep with
// fingerprint fp over npoints points and returns the points it records.
// A missing file is created holding only its header. A present file
// written for a different sweep is an error (stale files must be deleted
// deliberately, never merged), and a rejected file is left untouched. A
// torn or unparsable final line is dropped and the file truncated back
// to its last whole line, so loading the same file twice gives the same
// points.
func loadCheckpoint(path string, fp uint64, npoints int) (map[int]CampaignResult, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		h := checkpointHeader{Version: checkpointVersion, Fingerprint: fp, Points: npoints}
		if err := createCheckpoint(path, h); err != nil {
			return nil, fmt.Errorf("core: checkpoint: %w", err)
		}
		return map[int]CampaignResult{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	done, whole, err := parseCheckpoint(data, fp, npoints)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	if whole < len(data) {
		if err := os.Truncate(path, int64(whole)); err != nil {
			return nil, fmt.Errorf("core: checkpoint: %w", err)
		}
	}
	return done, nil
}

// createCheckpoint writes a log holding only its header line, by temp
// file + rename, so a crash never leaves a headerless file behind.
func createCheckpoint(path string, h checkpointHeader) error {
	line, err := json.Marshal(h)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(line, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// parseCheckpoint validates a checkpoint log and decodes its entries. It
// returns the recorded points and the length of the whole-line prefix
// they came from; anything past that is a torn final line to drop. Only
// the final line may fail to parse: a bad line with more after it is
// corruption no crash mid-append can leave.
func parseCheckpoint(data []byte, fp uint64, npoints int) (map[int]CampaignResult, int, error) {
	end := bytes.IndexByte(data, '\n')
	head := data
	if end >= 0 {
		head = data[:end]
	}
	// A version-1 file is one JSON object with no newline: it decodes as
	// a header and fails on its version, not as corrupt.
	var h checkpointHeader
	if err := json.Unmarshal(head, &h); err != nil {
		return nil, 0, fmt.Errorf("corrupt: %w", err)
	}
	if h.Version != checkpointVersion {
		return nil, 0, fmt.Errorf("version %d, want %d", h.Version, checkpointVersion)
	}
	if end < 0 {
		return nil, 0, errors.New("corrupt: header line has no newline")
	}
	if h.Fingerprint != fp || h.Points != npoints {
		return nil, 0, errors.New("written for a different sweep configuration (delete it to start over)")
	}
	done := make(map[int]CampaignResult)
	whole := end + 1
	for whole < len(data) {
		n := bytes.IndexByte(data[whole:], '\n')
		if n < 0 {
			break // torn final line
		}
		next := whole + n + 1
		point, res, err := parseEntry(data[whole : whole+n])
		if err != nil {
			if next == len(data) {
				break // unparsable final line
			}
			return nil, 0, fmt.Errorf("corrupt entry at byte %d: %w", whole, err)
		}
		if point < 0 || point >= npoints {
			return nil, 0, fmt.Errorf("point %d out of range [0, %d)", point, npoints)
		}
		if prev, dup := done[point]; dup && prev != res {
			return nil, 0, fmt.Errorf("point %d recorded twice with different results", point)
		}
		done[point] = res
		whole = next
	}
	return done, whole, nil
}

// parseEntry decodes one entry line. Both fields must be present: "{}"
// or "null" decode without error but record no point.
func parseEntry(line []byte) (int, CampaignResult, error) {
	var e struct {
		Point  *int            `json:"point"`
		Result *CampaignResult `json:"result"`
	}
	if err := json.Unmarshal(line, &e); err != nil {
		return 0, CampaignResult{}, err
	}
	if e.Point == nil || e.Result == nil {
		return 0, CampaignResult{}, errors.New("entry lacks its point or result")
	}
	return *e.Point, *e.Result, nil
}

// checkpointWriter appends completed points to a checkpoint log. flush is
// called from onPointDone under a point's fold lock; the writer's own
// mutex orders concurrent completions of different points, so entry
// lines never interleave. Write errors are sticky — the first one is
// reported once the sweep drains.
type checkpointWriter struct {
	path string

	mu       sync.Mutex
	recorded map[int]bool
	err      error
}

// openCheckpointWriter loads (or creates) the log at path and returns a
// writer appending to it, plus the points the log already held.
func openCheckpointWriter(path string, fp uint64, npoints int) (*checkpointWriter, map[int]CampaignResult, error) {
	done, err := loadCheckpoint(path, fp, npoints)
	if err != nil {
		return nil, nil, err
	}
	w := &checkpointWriter{path: path, recorded: make(map[int]bool, len(done))}
	for p := range done {
		w.recorded[p] = true
	}
	return w, done, nil
}

// flush appends one entry line for point unless the log already holds
// it. Only the new point is marshalled, and it lands with a single write
// on an O_APPEND handle, so a flush costs the same however many points
// are recorded. The handle is opened per flush and never creates the
// file: only loadCheckpoint does, header first.
func (w *checkpointWriter) flush(point int, res CampaignResult) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.recorded[point] {
		return
	}
	line, err := json.Marshal(checkpointEntry{Point: point, Result: res})
	if err == nil {
		err = appendLine(w.path, line)
	}
	if err != nil {
		w.err = err
		return
	}
	w.recorded[point] = true
}

// appendLine writes line and its newline to the end of the existing file
// at path in one write.
func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *checkpointWriter) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// CheckpointStore exposes the sweep checkpoint file to an external
// scheduler — the campaign service's worker-fleet supervisor, which
// commits points as lease results arrive instead of through a single
// in-process sweep. OpenCheckpoint validates the file against the sweep
// configuration exactly as RunSweepPointsCheckpoint would (dropping a
// torn final line the same way), and Flush appends one more completed
// point through the same writer, so a file written through a
// CheckpointStore and one written by RunSweepPointsCheckpoint over the
// same points are interchangeable: either runner resumes from either
// file.
type CheckpointStore struct {
	w        *checkpointWriter
	points   int
	restored map[int]CampaignResult
}

// OpenCheckpoint opens the checkpoint at path for the given sweep grid,
// creating it (header only) when missing. A file written for a different sweep is
// rejected by fingerprint, never merged. Flush is safe for concurrent
// use; write errors are sticky and surface from every later Flush.
func OpenCheckpoint(path string, points []SweepPoint, ad AdaptiveStop) (*CheckpointStore, error) {
	if path == "" {
		return nil, fmt.Errorf("core: checkpoint: empty path")
	}
	w, done, err := openCheckpointWriter(path, sweepFingerprint(points, ad), len(points))
	if err != nil {
		return nil, err
	}
	return &CheckpointStore{w: w, points: len(points), restored: done}, nil
}

// Restored returns the completions the file held when opened, keyed by
// point index. The caller owns the map; it is a copy, unaffected by
// later Flush calls.
func (c *CheckpointStore) Restored() map[int]CampaignResult { return c.restored }

// Flush records one completed point by appending its entry line; a
// point the file already holds is left as it is and adds no line. It
// returns the store's first write error (sticky, as in the checkpointed
// sweep runner: a checkpoint that cannot be written means the
// crash-safety the caller asked for is gone).
func (c *CheckpointStore) Flush(point int, res CampaignResult) error {
	if point < 0 || point >= c.points {
		return fmt.Errorf("core: checkpoint: point %d out of range [0, %d)", point, c.points)
	}
	c.w.flush(point, res)
	if err := c.w.firstErr(); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}
