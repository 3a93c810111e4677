package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// lifecycle journals a full job: submitted → started → finished.
func lifecycle(t *testing.T, s *Store, id, digest string) {
	t.Helper()
	req := json.RawMessage(fmt.Sprintf(`{"blif":"net-%s"}`, id))
	for _, ev := range []Event{
		{Type: EventSubmitted, JobID: id, Kind: "synth", Digest: digest, Request: req, Unix: 1},
		{Type: EventStarted, JobID: id, Unix: 2},
		{Type: EventFinished, JobID: id, Digest: digest, Unix: 3},
	} {
		if err := s.Append(ev); err != nil {
			t.Fatalf("Append(%s): %v", ev.Type, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	lifecycle(t, s, "job-000001", strings.Repeat("ab", 32))
	if err := s.Append(Event{Type: EventSubmitted, JobID: "job-000002", Kind: "sweep", Request: json.RawMessage(`{"blif":"x"}`), Unix: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Event{Type: EventStarted, JobID: "job-000002", Unix: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Event{Type: EventProgress, JobID: "job-000002", Done: 3, Total: 9, Unix: 6}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{})
	rec := r.Recovered()
	if rec.TruncatedBytes != 0 {
		t.Fatalf("clean journal reported %d truncated bytes", rec.TruncatedBytes)
	}
	if len(rec.Jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(rec.Jobs))
	}
	j1, j2 := rec.Jobs[0], rec.Jobs[1]
	if j1.ID != "job-000001" || j1.Status != EventFinished || !j1.Terminal() {
		t.Fatalf("job 1 recovered as %+v", j1)
	}
	if j1.Digest != strings.Repeat("ab", 32) || j1.Kind != "synth" {
		t.Fatalf("job 1 lost its submit fields: %+v", j1)
	}
	if j2.ID != "job-000002" || j2.Status != EventStarted || j2.Terminal() {
		t.Fatalf("job 2 recovered as %+v", j2)
	}
	if j2.Done != 3 || j2.Total != 9 {
		t.Fatalf("job 2 lost progress: %+v", j2)
	}
	if !bytes.Contains(j2.Request, []byte(`"blif"`)) {
		t.Fatalf("job 2 lost its request: %s", j2.Request)
	}
}

// TestTornTailTruncates is the crash contract: a partial final record
// recovers by truncation, not error, and earlier records survive.
func TestTornTailTruncates(t *testing.T) {
	for name, tear := range map[string]func([]byte) []byte{
		// half a header
		"short-header": func(seg []byte) []byte { return append(seg, 0x55, 0x66) },
		// a full header promising more payload than exists
		"short-payload": func(seg []byte) []byte {
			return append(seg, 0x40, 0, 0, 0, 1, 2, 3, 4, 'p', 'a', 'r', 't')
		},
		// a complete frame whose payload was corrupted in place
		"crc-mismatch": func(seg []byte) []byte {
			seg[len(seg)-1] ^= 0xff
			return seg
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, Options{})
			lifecycle(t, s, "job-000001", strings.Repeat("cd", 32))
			if err := s.Append(Event{Type: EventSubmitted, JobID: "job-000002", Request: json.RawMessage(`{}`), Unix: 9}); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "wal", segName(1))
			seg, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tear(append([]byte(nil), seg...)), 0o644); err != nil {
				t.Fatal(err)
			}

			r := openTest(t, dir, Options{})
			rec := r.Recovered()
			if rec.TruncatedBytes == 0 {
				t.Fatal("recovery did not truncate the torn tail")
			}
			if len(rec.Jobs) == 0 || rec.Jobs[0].ID != "job-000001" || rec.Jobs[0].Status != EventFinished {
				t.Fatalf("intact records lost: %+v", rec.Jobs)
			}
			// The truncated journal accepts appends and round-trips again.
			lifecycle(t, r, "job-000003", strings.Repeat("ef", 32))
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r2 := openTest(t, dir, Options{})
			if got := r2.Recovered(); got.TruncatedBytes != 0 || got.Jobs[len(got.Jobs)-1].ID != "job-000003" {
				t.Fatalf("post-truncation journal did not recover cleanly: %+v", got)
			}
		})
	}
}

// Corruption in a non-newest segment cannot be a torn append and must
// surface as an error, not silent data loss.
func TestCorruptMiddleSegmentErrors(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 256}) // force rotation
	for i := 1; i <= 8; i++ {
		lifecycle(t, s, fmt.Sprintf("job-%06d", i), strings.Repeat(fmt.Sprintf("%02x", i), 32))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.liveSegs); n < 2 {
		t.Fatalf("rotation produced %d segments, need ≥ 2 for this test", n)
	}
	path := filepath.Join(dir, "wal", segName(1))
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seg[len(seg)/2] ^= 0xff
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt middle segment")
	}
}

func TestSegmentRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 512})
	const jobs = 20
	for i := 1; i <= jobs; i++ {
		lifecycle(t, s, fmt.Sprintf("job-%06d", i), strings.Repeat(fmt.Sprintf("%02x", i), 32))
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segment(s) for %d bytes", st.Segments, st.JournalBytes)
	}
	if st.Appends != jobs*3 {
		t.Fatalf("appends = %d, want %d", st.Appends, jobs*3)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{})
	rec := r.Recovered()
	if len(rec.Jobs) != jobs || rec.Events != jobs*3 {
		t.Fatalf("replayed %d jobs / %d events, want %d / %d", len(rec.Jobs), rec.Events, jobs, jobs*3)
	}
	for i, j := range rec.Jobs {
		if want := fmt.Sprintf("job-%06d", i+1); j.ID != want {
			t.Fatalf("job %d replayed out of order: %s", i, j.ID)
		}
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	// Auto-compaction: every 30 appends (= 10 lifecycles).
	s := openTest(t, dir, Options{SegmentBytes: 512, CompactEvery: 30})
	const jobs = 25
	for i := 1; i <= jobs; i++ {
		lifecycle(t, s, fmt.Sprintf("job-%06d", i), strings.Repeat(fmt.Sprintf("%02x", i), 32))
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatal("no auto-compaction after 75 appends with CompactEvery=30")
	}
	before := st.JournalBytes
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats().JournalBytes; after >= before && before > 0 {
		t.Fatalf("compaction did not shrink the journal: %d → %d", before, after)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{})
	rec := r.Recovered()
	if !rec.SnapshotLoaded {
		t.Fatal("recovery after compaction did not load a snapshot")
	}
	if len(rec.Jobs) != jobs {
		t.Fatalf("compaction lost jobs: %d, want %d", len(rec.Jobs), jobs)
	}
	for i, j := range rec.Jobs {
		if want := fmt.Sprintf("job-%06d", i+1); j.ID != want || j.Status != EventFinished {
			t.Fatalf("job %d replayed as %+v", i, j)
		}
	}
}

func TestMaxJobsPrunesTerminal(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{MaxJobs: 5})
	for i := 1; i <= 9; i++ {
		lifecycle(t, s, fmt.Sprintf("job-%06d", i), strings.Repeat(fmt.Sprintf("%02x", i), 32))
	}
	// One pending job must survive pruning even when old.
	if err := s.Append(Event{Type: EventSubmitted, JobID: "job-000010", Request: json.RawMessage(`{}`), Unix: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 18; i++ {
		lifecycle(t, s, fmt.Sprintf("job-%06d", i), strings.Repeat(fmt.Sprintf("%02x", i%16), 32))
	}
	s.mu.Lock()
	n := len(s.order)
	_, pendingKept := s.jobs["job-000010"]
	s.mu.Unlock()
	if n > 6 { // MaxJobs plus at most the protected pending job
		t.Fatalf("job table holds %d entries, want ≤ 6", n)
	}
	if !pendingKept {
		t.Fatal("pruning dropped a pending job")
	}
}

func TestResultStore(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	digest := strings.Repeat("0f", 32)
	data := []byte(`{"tln":"gate g = <1,1;1>(a,b)"}`)
	if _, err := s.GetResult(digest); !errors.Is(err, ErrNoResult) {
		t.Fatalf("GetResult before Put: %v, want ErrNoResult", err)
	}
	if err := s.PutResult(digest, data); err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult(digest, []byte("ignored")); err != nil {
		t.Fatalf("idempotent re-put: %v", err)
	}
	got, err := s.GetResult(digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("GetResult = %s, want %s (re-put must not overwrite)", got, data)
	}
	if err := s.PutResult("../escape", data); err == nil {
		t.Fatal("PutResult accepted a non-hex digest")
	}

	other := strings.Repeat("1a", 32)
	if err := s.PutResult(other, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{})
	if got := r.Stats().Results; got != 2 {
		t.Fatalf("reopened store counts %d results, want 2", got)
	}
	digests, err := r.ResultDigests()
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 2 {
		t.Fatalf("ResultDigests = %v, want both digests", digests)
	}
	back, err := r.GetResult(digest)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("result did not survive reopen: %s, %v", back, err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Event{Type: EventSubmitted, JobID: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
}

func TestEmptyDirRecovers(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	rec := s.Recovered()
	if len(rec.Jobs) != 0 || rec.Events != 0 || rec.SnapshotLoaded {
		t.Fatalf("fresh store recovered %+v", rec)
	}
}

// TestOldFailedFrameFolds replays a failed-event frame written by a build
// whose events still carried an "error_code" field: JSON decoding drops
// the unknown field, and the job folds to failed with its message.
func TestOldFailedFrameFolds(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if err := s.Append(Event{Type: EventSubmitted, JobID: "job-000001", Kind: "synth", Request: json.RawMessage(`{}`), Unix: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal", segName(1)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := `{"type":"failed","job_id":"job-000001","error":"service: parse: bad cube","error_code":"invalid_request","unix":2}`
	if _, err := appendFrame(f, []byte(old)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rec := openTest(t, dir, Options{}).Recovered()
	if rec.TruncatedBytes != 0 || len(rec.Jobs) != 1 {
		t.Fatalf("recovered %d jobs, %d truncated bytes; want 1 job, none truncated", len(rec.Jobs), rec.TruncatedBytes)
	}
	j := rec.Jobs[0]
	if j.Status != EventFailed || j.Error != "service: parse: bad cube" || j.Finished != 2 {
		t.Fatalf("old failed frame folded to %+v", j)
	}
}
