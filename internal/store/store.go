// Package store is a disk-backed content-addressed result store: the
// persistence layer under the fpartd in-memory result cache.
//
// The in-memory LRU of internal/service dies with the process, but
// partitioning results are pure functions of (hypergraph structure,
// device, method) — exactly what the service's Fingerprint hashes — so
// they are safe to keep forever and share across restarts and peers. The
// store keeps one file per fingerprint key under a data directory:
//
//	<dir>/<key>.json    — a versioned JSON envelope around the payload
//	<dir>/.tmp-*        — in-flight writes, renamed into place atomically
//
// Properties:
//
//   - Atomic writes. Put writes to a temp file in the same directory and
//     renames it over the final name, so a crash mid-write never leaves a
//     truncated entry visible; stale temp files are swept at Open.
//   - Corruption detection. The envelope records a format version and the
//     SHA-256 of the payload; Get verifies both (and that the entry is
//     filed under its own key) and deletes anything that fails, counting
//     it, so one flipped bit never serves a wrong partition.
//   - LRU byte budget. The store tracks entry sizes and access order and
//     evicts the least-recently-used files when the on-disk total exceeds
//     the budget. Access times are persisted best-effort via the file
//     mtime so the LRU order survives restarts too.
//
// The payload is opaque bytes: the service layer owns the result
// serialization (see internal/service's stored-result codec), the store
// owns durability. All methods are safe for concurrent use.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Version is the on-disk envelope format version. Envelopes with another
// version are treated as corrupt (deleted and counted), so a future
// incompatible codec bump invalidates old entries instead of mis-reading
// them.
const Version = 1

// envelope is the on-disk JSON framing around one payload.
type envelope struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	// Sum is the hex SHA-256 of Payload; Get recomputes and compares.
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// entry is the in-memory index record for one on-disk file.
type entry struct {
	key   string
	size  int64 // file size in bytes (envelope included)
	atime time.Time
}

// Store is a disk-backed content-addressed byte store with an LRU byte
// budget. Create one with Open.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entry
	bytes   int64

	hits      atomic.Int64
	misses    atomic.Int64
	writes    atomic.Int64
	evictions atomic.Int64
	corrupt   atomic.Int64
}

// Open opens (creating if needed) the store rooted at dir with an LRU
// budget of maxBytes on-disk bytes (≤ 0 means 256 MiB). Existing entries
// are indexed by their file sizes and mtimes — oldest-accessed first —
// and leftover temp files from interrupted writes are removed.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, entries: make(map[string]*entry)}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(dir, name)) // interrupted write
			continue
		}
		key, ok := strings.CutSuffix(name, ".json")
		if !ok {
			continue // not ours; leave it alone
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		s.entries[key] = &entry{key: key, size: info.Size(), atime: info.ModTime()}
		s.bytes += info.Size()
	}
	// Enforce the budget immediately: a shrunken -store-bytes must bite at
	// boot, not only on the next write.
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// validKey rejects keys that could escape the directory or collide with
// temp files. Fingerprint keys are lowercase hex, so this is a cheap
// defensive gate, not a parser.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '_') {
			return false
		}
	}
	return true
}

// Get returns the payload stored under key, if present and intact. A
// corrupt entry (bad envelope, version or checksum mismatch, no payload,
// or an entry filed under the wrong key) is deleted, counted, and
// reported as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		s.misses.Add(1)
		return nil, false
	}
	s.mu.Lock()
	ent, ok := s.entries[key]
	if ok {
		ent.atime = time.Now()
	}
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}

	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		// Index and disk disagree (external deletion); drop the entry.
		s.dropLocked1(key)
		s.misses.Add(1)
		return nil, false
	}
	// Put stores only valid JSON, so an envelope without a payload is
	// corrupt too, even when its sum is that of the empty string.
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil ||
		env.Version != Version || env.Key != key || len(env.Payload) == 0 ||
		env.Sum != payloadSum(env.Payload) {
		s.corrupt.Add(1)
		s.removeFile(key)
		s.misses.Add(1)
		return nil, false
	}
	// Persist the LRU touch best-effort so access order survives restarts.
	now := time.Now()
	_ = os.Chtimes(s.path(key), now, now)
	s.hits.Add(1)
	return env.Payload, true
}

// Put stores payload under key, replacing any previous entry, then evicts
// least-recently-used entries until the on-disk total fits the budget.
// The payload must be one valid JSON value (it is embedded raw in the
// envelope so entries stay greppable on disk); a payload larger than the
// whole budget is rejected.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	raw, err := json.Marshal(envelope{
		Version: Version,
		Key:     key,
		Sum:     payloadSum(payload),
		Payload: json.RawMessage(payload),
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if int64(len(raw)) > s.maxBytes {
		return fmt.Errorf("store: entry %q (%d bytes) exceeds the %d-byte budget", key, len(raw), s.maxBytes)
	}

	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}

	s.mu.Lock()
	if old, ok := s.entries[key]; ok {
		s.bytes -= old.size
	}
	s.entries[key] = &entry{key: key, size: int64(len(raw)), atime: time.Now()}
	s.bytes += int64(len(raw))
	s.evictLocked()
	s.mu.Unlock()
	s.writes.Add(1)
	return nil
}

// evictLocked removes least-recently-used entries until the byte total is
// within budget. Callers hold mu.
func (s *Store) evictLocked() {
	if s.bytes <= s.maxBytes {
		return
	}
	ents := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		ents = append(ents, e)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].atime.Before(ents[j].atime) })
	for _, e := range ents {
		if s.bytes <= s.maxBytes {
			break
		}
		os.Remove(s.path(e.key))
		s.bytes -= e.size
		delete(s.entries, e.key)
		s.evictions.Add(1)
	}
}

// removeFile deletes an entry's file and index record.
func (s *Store) removeFile(key string) {
	os.Remove(s.path(key))
	s.dropLocked1(key)
}

// dropLocked1 removes key from the index (taking mu itself).
func (s *Store) dropLocked1(key string) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.bytes -= e.size
		delete(s.entries, key)
	}
	s.mu.Unlock()
}

// Len reports the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes reports the indexed on-disk byte total.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats is a snapshot of the store's operational counters.
type Stats struct {
	Entries   int
	Bytes     int64
	Hits      int64
	Misses    int64
	Writes    int64
	Evictions int64
	Corrupt   int64
}

// StatsNow snapshots the counters for the /metrics exposition.
func (s *Store) StatsNow() Stats {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.bytes
	s.mu.Unlock()
	return Stats{
		Entries:   entries,
		Bytes:     bytes,
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Writes:    s.writes.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
	}
}

func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}
