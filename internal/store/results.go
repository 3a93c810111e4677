package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The result store is content-addressed: a finished job's result bytes
// live at results/<digest[:2]>/<digest>.json, keyed by the service's
// SHA-256 request digest. Writes are atomic (temp file + rename), reads
// need no locking beyond the filesystem's, and identical requests share
// one file across restarts — the on-disk twin of the in-memory LRU.

// ErrNoResult is returned by GetResult for an absent digest.
var ErrNoResult = errors.New("store: no result for digest")

// validDigest accepts lowercase-hex content addresses (the service's
// SHA-256 digests) and rejects anything that could escape the results
// directory or collide with sharding.
func validDigest(digest string) error {
	if len(digest) < 8 {
		return fmt.Errorf("store: digest %q too short", digest)
	}
	for _, c := range digest {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: digest %q is not lowercase hex", digest)
		}
	}
	return nil
}

func (s *Store) resultPath(digest string) string {
	return filepath.Join(s.resDir, digest[:2], digest+".json")
}

// PutResult persists the result bytes under the digest. Re-putting an
// existing digest is a no-op: the address is derived from the request
// content, so the bytes are already equivalent. resMu makes the
// exists-check, write, and counter bump one critical section — two
// concurrent first-puts of the same digest would otherwise both write
// and both increment, drifting the results count from the file count.
func (s *Store) PutResult(digest string, data []byte) error {
	if err := validDigest(digest); err != nil {
		return err
	}
	s.resMu.Lock()
	defer s.resMu.Unlock()
	path := s.resultPath(digest)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := atomicWrite(dir, filepath.Base(path), data); err != nil {
		return err
	}
	s.mu.Lock()
	s.results++
	s.mu.Unlock()
	return nil
}

// GetResult reads the result bytes for the digest (ErrNoResult when
// absent).
func (s *Store) GetResult(digest string) ([]byte, error) {
	if err := validDigest(digest); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.resultPath(digest))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoResult, digest)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// ResultDigests lists every persisted digest, newest first by file
// modification time — the order a bounded cache warm should load them.
func (s *Store) ResultDigests() ([]string, error) {
	type entry struct {
		digest string
		mod    int64
	}
	var found []entry
	shards, err := os.ReadDir(s.resDir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.resDir, sh.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			name := f.Name()
			if filepath.Ext(name) != ".json" {
				continue
			}
			digest := name[:len(name)-len(".json")]
			if validDigest(digest) != nil {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			found = append(found, entry{digest, info.ModTime().UnixNano()})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mod > found[j].mod })
	out := make([]string, len(found))
	for i, e := range found {
		out[i] = e.digest
	}
	return out, nil
}

// countResults sizes the results counter at open time.
func (s *Store) countResults() (int64, error) {
	digests, err := s.ResultDigests()
	if err != nil {
		return 0, err
	}
	return int64(len(digests)), nil
}
