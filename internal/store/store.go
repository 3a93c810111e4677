// Package store is telsd's durable job and result store. It has two
// halves under one data directory:
//
//   - wal/: a segmented append-only write-ahead log of job lifecycle
//     events (submitted, started, progress, finished, failed, canceled,
//     interrupted), each record length-prefixed and CRC32-C framed.
//     Segments rotate at a size threshold; every CompactEvery appends
//     the folded per-job state is written as a snapshot and the
//     segments it covers are deleted. Recovery loads the newest
//     snapshot, replays the remaining segments, and truncates a torn
//     tail in the newest segment back to the last intact frame.
//
//   - results/: a content-addressed result store keyed by the
//     service's SHA-256 request digests. Finished results are written
//     atomically (temp file + rename), so a crash never leaves a
//     partially-visible result, and identical jobs re-serve from disk
//     across restarts without recomputation.
//
// The store knows nothing about the service's request or result types:
// events carry the request as raw JSON and results are opaque bytes,
// so the persistence format is decoupled from the service schema.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// EventType is the lifecycle phase a journal record describes.
type EventType string

// Journal event types. A job is journaled submitted once, started when
// a worker (or coordinator) picks it up, progress zero or more times,
// and exactly one terminal event: finished, failed, or canceled.
// Interrupted marks a queued or running job that a graceful shutdown
// drained; on the next start it is re-enqueued instead of lost.
const (
	EventSubmitted   EventType = "submitted"
	EventStarted     EventType = "started"
	EventProgress    EventType = "progress"
	EventFinished    EventType = "finished"
	EventFailed      EventType = "failed"
	EventCanceled    EventType = "canceled"
	EventInterrupted EventType = "interrupted"
)

// Event is one journal record.
type Event struct {
	Type  EventType `json:"type"`
	JobID string    `json:"job_id"`
	// Kind, Digest, and Request ride on submitted events; Digest also
	// keys the result store entry named by finished events.
	Kind    string          `json:"kind,omitempty"`
	Digest  string          `json:"digest,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`
	// Tenant and Priority ride on submitted events (journal schema v2).
	// Records written before multi-tenancy simply lack them; the service
	// replays such jobs under its default tenant.
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority,omitempty"`
	// Error rides on failed events.
	Error string `json:"error,omitempty"`
	// Done and Total ride on progress events (sweep points landed,
	// resyn iterations completed).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Unix is the event time in nanoseconds since the epoch.
	Unix int64 `json:"unix,omitempty"`
}

// JobState is the folded view of one job's journal records.
type JobState struct {
	ID        string          `json:"id"`
	Kind      string          `json:"kind,omitempty"`
	Digest    string          `json:"digest,omitempty"`
	Request   json.RawMessage `json:"request,omitempty"`
	Tenant    string          `json:"tenant,omitempty"`
	Priority  string          `json:"priority,omitempty"`
	Status    EventType       `json:"status"`
	Error     string          `json:"error,omitempty"`
	Done      int             `json:"done,omitempty"`
	Total     int             `json:"total,omitempty"`
	Submitted int64           `json:"submitted_unix,omitempty"`
	Finished  int64           `json:"finished_unix,omitempty"`
}

// Terminal reports whether the job's last journaled event is final.
// Interrupted jobs are not terminal: they are the backlog a restart
// re-enqueues.
func (j JobState) Terminal() bool {
	switch j.Status {
	case EventFinished, EventFailed, EventCanceled:
		return true
	}
	return false
}

// Recovery summarizes what Open replayed.
type Recovery struct {
	// Jobs is the folded journal in submission order.
	Jobs []JobState
	// Events is the number of journal records replayed (snapshot
	// entries excluded).
	Events int
	// TruncatedBytes is how much torn tail was cut from the newest
	// segment (0 for a clean shutdown).
	TruncatedBytes int64
	// SnapshotLoaded reports whether a compaction snapshot seeded the
	// replay.
	SnapshotLoaded bool
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
}

// Stats is a point-in-time accounting snapshot for metrics.
type Stats struct {
	// JournalBytes is the total size of the live WAL segments.
	JournalBytes int64
	// Segments is the number of live WAL segments.
	Segments int
	// Appends counts journal records written since Open.
	Appends int64
	// Compactions counts snapshot+prune cycles since Open.
	Compactions int64
	// Results is the number of persisted result files.
	Results int64
}

// Options tune the store.
type Options struct {
	// SegmentBytes rotates the active WAL segment beyond this size
	// (default 4 MiB).
	SegmentBytes int64
	// CompactEvery triggers a snapshot+prune after this many appends
	// (default 8192).
	CompactEvery int
	// MaxJobs bounds the folded job states the journal retains; the
	// oldest terminal jobs are dropped first (default 4096).
	MaxJobs int
	// Sync fsyncs the active segment after every append. Off by
	// default: an OS-buffered write already survives a process kill,
	// and the segment is synced on rotation and Close.
	Sync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 8192
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	return o
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Store owns one data directory. All methods are safe for concurrent
// use; the journal is single-writer by construction (appends serialize
// on the store's mutex, preserving event order).
type Store struct {
	dir    string
	walDir string
	resDir string
	opts   Options

	// resMu serializes result-store writes (exists-check, write, and
	// counter bump form one critical section) without stalling journal
	// appends, which serialize on mu.
	resMu sync.Mutex

	mu           sync.Mutex
	seg          *os.File
	segSeq       uint64
	segBytes     int64
	liveSegs     map[uint64]int64 // segment seq → byte size, active included
	jobs         map[string]*JobState
	order        []string
	sinceCompact int
	appends      int64
	compactions  int64
	results      int64
	recovery     Recovery
	closed       bool
}

func segName(seq uint64) string  { return fmt.Sprintf("seg-%08d.wal", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.json", seq) }

// snapshot is the on-disk compaction format: the folded job states of
// every journal record in segments before Seq.
//
// Version history: 1 = pre-tenant (JobState lacks Tenant/Priority);
// 2 = adds Tenant/Priority. Loading accepts any version up to
// snapshotVersion — the fields are additive, so a v1 snapshot decodes
// with empty tenancy and the service assigns its default tenant.
// Snapshots from a future version are skipped, falling back to an
// older readable one (or a plain segment replay).
type snapshot struct {
	Version int        `json:"version"`
	Seq     uint64     `json:"seq"`
	Jobs    []JobState `json:"jobs"`
}

// snapshotVersion is the format written by compactLocked.
const snapshotVersion = 2

// Open creates the directory layout if needed and recovers the journal:
// newest snapshot first, then every surviving segment in order, with a
// torn tail in the newest segment truncated back to the last intact
// frame. The folded backlog is available from Recovered.
func Open(dir string, opts Options) (*Store, error) {
	start := time.Now()
	s := &Store{
		dir:      dir,
		walDir:   filepath.Join(dir, "wal"),
		resDir:   filepath.Join(dir, "results"),
		opts:     opts.withDefaults(),
		liveSegs: make(map[uint64]int64),
		jobs:     make(map[string]*JobState),
	}
	for _, d := range []string{s.walDir, s.resDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	segs, snapSeq, err := s.loadSnapshot()
	if err != nil {
		return nil, err
	}
	if err := s.replaySegments(segs, snapSeq); err != nil {
		return nil, err
	}
	if err := s.openActiveSegment(segs, snapSeq); err != nil {
		return nil, err
	}
	n, err := s.countResults()
	if err != nil {
		return nil, err
	}
	s.results = n
	s.recovery.Jobs = s.jobsLocked()
	s.recovery.Elapsed = time.Since(start)
	return s, nil
}

// loadSnapshot lists the wal directory and seeds the job table from the
// newest readable snapshot. It returns the segment sequence numbers on
// disk and the snapshot's starting sequence (0 = no snapshot).
func (s *Store) loadSnapshot() (segs []uint64, snapSeq uint64, err error) {
	entries, err := os.ReadDir(s.walDir)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	var snaps []uint64
	for _, e := range entries {
		var seq uint64
		switch {
		case !e.Type().IsRegular():
		case matchSeq(e.Name(), "seg-", ".wal", &seq):
			segs = append(segs, seq)
		case matchSeq(e.Name(), "snap-", ".json", &seq):
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] }) // newest first
	for _, seq := range snaps {
		data, rerr := os.ReadFile(filepath.Join(s.walDir, snapName(seq)))
		if rerr != nil {
			continue
		}
		var snap snapshot
		if json.Unmarshal(data, &snap) != nil || snap.Seq != seq {
			continue // half-written snapshot from a crash mid-compaction
		}
		if snap.Version > snapshotVersion {
			continue // written by a newer build; fall back to an older one
		}
		for i := range snap.Jobs {
			j := snap.Jobs[i]
			s.jobs[j.ID] = &j
			s.order = append(s.order, j.ID)
		}
		s.recovery.SnapshotLoaded = true
		return segs, seq, nil
	}
	return segs, 0, nil
}

func matchSeq(name, prefix, suffix string, seq *uint64) bool {
	if len(name) != len(prefix)+8+len(suffix) {
		return false
	}
	var n uint64
	if _, err := fmt.Sscanf(name, prefix+"%08d"+suffix, &n); err != nil {
		return false
	}
	*seq = n
	return true
}

// replaySegments folds every segment at or after the snapshot boundary
// into the job table. A torn or corrupt tail is truncated in the newest
// segment; anywhere else it is real corruption and an error. Segments
// older than the snapshot are leftovers of a crash mid-compaction and
// are deleted.
func (s *Store) replaySegments(segs []uint64, snapSeq uint64) error {
	last := uint64(0)
	if len(segs) > 0 {
		last = segs[len(segs)-1]
	}
	for _, seq := range segs {
		path := filepath.Join(s.walDir, segName(seq))
		if seq < snapSeq {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("store: prune pre-snapshot segment: %w", err)
			}
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		payloads, good, torn := scanFrames(data)
		if torn {
			if seq != last {
				return fmt.Errorf("store: segment %s is corrupt at byte %d (not the newest segment, so this is not a torn append)", segName(seq), good)
			}
			if err := os.Truncate(path, good); err != nil {
				return fmt.Errorf("store: truncate torn tail: %w", err)
			}
			s.recovery.TruncatedBytes = int64(len(data)) - good
		}
		for _, p := range payloads {
			var ev Event
			if err := json.Unmarshal(p, &ev); err != nil {
				// The frame's checksum matched, so this was written as is;
				// skip rather than fail recovery on one bad record.
				continue
			}
			s.foldLocked(ev)
			s.recovery.Events++
		}
		s.liveSegs[seq] = good
	}
	return nil
}

// openActiveSegment opens the newest segment for appending, or starts a
// fresh one when the journal is empty.
func (s *Store) openActiveSegment(segs []uint64, snapSeq uint64) error {
	live := segs[:0]
	for _, seq := range segs {
		if seq >= snapSeq {
			live = append(live, seq)
		}
	}
	if len(live) == 0 {
		return s.startSegmentLocked(max(snapSeq, 1))
	}
	seq := live[len(live)-1]
	f, err := os.OpenFile(filepath.Join(s.walDir, segName(seq)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.seg, s.segSeq, s.segBytes = f, seq, s.liveSegs[seq]
	return nil
}

// startSegmentLocked creates and activates segment seq.
func (s *Store) startSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(s.walDir, segName(seq)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.seg, s.segSeq, s.segBytes = f, seq, 0
	s.liveSegs[seq] = 0
	return nil
}

// foldLocked applies one event to the job table, pruning the oldest
// terminal jobs beyond MaxJobs.
func (s *Store) foldLocked(ev Event) {
	j, ok := s.jobs[ev.JobID]
	if !ok {
		if ev.Type != EventSubmitted {
			return // event for a job pruned from the table; ignore
		}
		j = &JobState{ID: ev.JobID}
		s.jobs[ev.JobID] = j
		s.order = append(s.order, ev.JobID)
	}
	switch ev.Type {
	case EventSubmitted:
		j.Kind, j.Digest, j.Request, j.Submitted = ev.Kind, ev.Digest, ev.Request, ev.Unix
		j.Tenant, j.Priority = ev.Tenant, ev.Priority
		j.Status = EventSubmitted
	case EventProgress:
		j.Done, j.Total = ev.Done, ev.Total
	case EventFinished, EventFailed, EventCanceled:
		j.Status = ev.Type
		j.Error, j.Finished = ev.Error, ev.Unix
	default:
		j.Status = ev.Type
	}
	if len(s.order) > s.opts.MaxJobs {
		kept := s.order[:0]
		excess := len(s.order) - s.opts.MaxJobs
		for _, id := range s.order {
			if excess > 0 && s.jobs[id] != nil && s.jobs[id].Terminal() {
				delete(s.jobs, id)
				excess--
				continue
			}
			kept = append(kept, id)
		}
		s.order = kept
	}
}

func (s *Store) jobsLocked() []JobState {
	out := make([]JobState, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, *j)
		}
	}
	return out
}

// Recovered returns what Open replayed. The slice is a snapshot taken
// at open time; later appends don't mutate it.
func (s *Store) Recovered() Recovery { return s.recovery }

// Append journals one event: frame, write, fold, and — past the
// rotation and compaction thresholds — rotate the segment or snapshot
// and prune. The write is a single OS call, so it is durable against a
// process kill as soon as Append returns (against power loss only with
// Options.Sync).
func (s *Store) Append(ev Event) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("store: encode event: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.segBytes > 0 && s.segBytes+frameHeaderSize+int64(len(payload)) > s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := appendFrame(s.seg, payload)
	if err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	s.segBytes += n
	s.liveSegs[s.segSeq] = s.segBytes
	s.appends++
	s.sinceCompact++
	s.foldLocked(ev)
	if s.opts.Sync {
		if err := s.seg.Sync(); err != nil {
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	if s.sinceCompact >= s.opts.CompactEvery {
		return s.compactLocked()
	}
	return nil
}

// rotateLocked syncs and closes the active segment and starts the next.
func (s *Store) rotateLocked() error {
	if err := s.seg.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	if err := s.seg.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.startSegmentLocked(s.segSeq + 1)
}

// Compact forces a snapshot+prune cycle (normally triggered every
// CompactEvery appends): rotate to a fresh segment, write the folded
// job table as a snapshot covering everything before it, then delete
// the covered segments and older snapshots.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	if err := s.rotateLocked(); err != nil {
		return err
	}
	snap := snapshot{Version: snapshotVersion, Seq: s.segSeq, Jobs: s.jobsLocked()}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	if err := atomicWrite(s.walDir, snapName(s.segSeq), data); err != nil {
		return err
	}
	// atomicWrite fsynced the snapshot and the wal directory, so the
	// snapshot is durable — against power loss, not just a process kill
	// — before anything it covers goes. A crash between these removals
	// just leaves files Open prunes later.
	for seq := range s.liveSegs {
		if seq < s.segSeq {
			if err := os.Remove(filepath.Join(s.walDir, segName(seq))); err != nil {
				return fmt.Errorf("store: prune segment: %w", err)
			}
			delete(s.liveSegs, seq)
		}
	}
	entries, err := os.ReadDir(s.walDir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		var seq uint64
		if matchSeq(e.Name(), "snap-", ".json", &seq) && seq < s.segSeq {
			if err := os.Remove(filepath.Join(s.walDir, e.Name())); err != nil {
				return fmt.Errorf("store: prune snapshot: %w", err)
			}
		}
	}
	s.sinceCompact = 0
	s.compactions++
	return nil
}

// Stats returns the accounting snapshot for metrics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Segments:    len(s.liveSegs),
		Appends:     s.appends,
		Compactions: s.compactions,
		Results:     s.results,
	}
	for _, b := range s.liveSegs {
		st.JournalBytes += b
	}
	return st
}

// Close syncs and closes the active segment. The result store needs no
// teardown (every write is already atomic and self-contained).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.seg.Sync(); err != nil {
		s.seg.Close()
		return fmt.Errorf("store: sync: %w", err)
	}
	return s.seg.Close()
}

// atomicWrite writes name under dir via a temp file and rename, so
// readers never observe a partial file. The temp file is fsynced
// before the rename and the directory after it, so the file is durable
// against power loss by the time atomicWrite returns — compaction
// relies on this to delete the segments a snapshot covers immediately,
// and Options.Sync relies on it for result files.
func atomicWrite(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making renames and unlinks inside it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
