package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	payload := []byte(`{"answer":42,"name":"x"}`)
	if err := s.Put("abc123", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("abc123")
	if !ok {
		t.Fatal("stored entry missing")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mangled: %s", got)
	}
	if _, ok := s.Get("never-stored"); ok {
		t.Fatal("phantom hit")
	}
	st := s.StatsNow()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReopenSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.Put("key1", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key2", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}

	// A fresh Store over the same directory must index both entries.
	s2 := open(t, dir, 0)
	if s2.Len() != 2 {
		t.Fatalf("reopened store has %d entries, want 2", s2.Len())
	}
	got, ok := s2.Get("key2")
	if !ok || string(got) != `{"v":2}` {
		t.Fatalf("reopened get: %q %v", got, ok)
	}
	if s2.Bytes() <= 0 {
		t.Fatal("byte accounting lost across reopen")
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.Put("good", []byte(`{"v":"ok"}`)); err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(path string){
		"truncated": func(p string) {
			raw, _ := os.ReadFile(p)
			os.WriteFile(p, raw[:len(raw)/2], 0o644)
		},
		"bitflip": func(p string) {
			raw, _ := os.ReadFile(p)
			// Flip a byte inside the payload, leaving the JSON well-formed.
			i := strings.Index(string(raw), `"ok"`)
			raw[i+1] = 'X'
			os.WriteFile(p, raw, 0o644)
		},
		"badversion": func(p string) {
			var env map[string]any
			raw, _ := os.ReadFile(p)
			json.Unmarshal(raw, &env)
			env["version"] = 99
			out, _ := json.Marshal(env)
			os.WriteFile(p, out, 0o644)
		},
		"wrongkey": func(p string) {
			raw, _ := os.ReadFile(p)
			os.WriteFile(p, []byte(strings.ReplaceAll(string(raw), `"victim"`, `"evil00"`)), 0o644)
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("victim", []byte(`{"v":"ok"}`)); err != nil {
				t.Fatal(err)
			}
			before := s.StatsNow().Corrupt
			corrupt(filepath.Join(dir, "victim.json"))
			if _, ok := s.Get("victim"); ok {
				t.Fatal("corrupt entry served")
			}
			if s.StatsNow().Corrupt != before+1 {
				t.Fatal("corruption not counted")
			}
			if _, err := os.Stat(filepath.Join(dir, "victim.json")); !os.IsNotExist(err) {
				t.Fatal("corrupt file not deleted")
			}
			// The good entry is untouched.
			if _, ok := s.Get("good"); !ok {
				t.Fatal("collateral damage to intact entry")
			}
		})
	}
}

func TestLRUByteBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	// Size the budget for roughly three entries.
	pad := strings.Repeat("x", 200)
	probe := fmt.Sprintf(`{"pad":%q}`, pad)
	s := open(t, dir, 0)
	if err := s.Put("probe", []byte(probe)); err != nil {
		t.Fatal(err)
	}
	entryBytes := s.Bytes()
	s = open(t, dir, 3*entryBytes+entryBytes/2)
	os.Remove(filepath.Join(dir, "probe.json"))
	s = open(t, dir, 3*entryBytes+entryBytes/2)

	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(probe)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct atimes
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	time.Sleep(2 * time.Millisecond)
	if err := s.Put("k3", []byte(probe)); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get("k1"); ok {
		t.Fatal("LRU entry k1 survived over-budget Put")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recently-used entry %s evicted", k)
		}
	}
	if s.StatsNow().Evictions == 0 {
		t.Fatal("eviction not counted")
	}
	if s.Bytes() > 3*entryBytes+entryBytes/2 {
		t.Fatalf("over budget after eviction: %d", s.Bytes())
	}
}

func TestOpenEnforcesShrunkenBudget(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	payload := []byte(fmt.Sprintf(`{"pad":%q}`, strings.Repeat("y", 100)))
	// Open orders entries by file mtime. Stamp each file a second apart:
	// back-to-back writes can share one mtime on filesystems with coarse
	// timestamps.
	base := time.Now().Add(-time.Minute)
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		mtime := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(s.path(key), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	perEntry := s.Bytes() / 4

	s2 := open(t, dir, 2*perEntry+perEntry/2)
	if s2.Len() != 2 {
		t.Fatalf("reopen with smaller budget kept %d entries, want 2", s2.Len())
	}
	// The survivors are the most recently written.
	for _, k := range []string{"k2", "k3"} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("most-recent entry %s evicted at open", k)
		}
	}
}

func TestTempFilesSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, 0)
	if s.Len() != 0 {
		t.Fatal("temp file indexed as an entry")
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-123")); !os.IsNotExist(err) {
		t.Fatal("stale temp file not swept")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for _, key := range []string{"", "../escape", "a/b", "a.b", strings.Repeat("k", 200)} {
		if err := s.Put(key, []byte(`{}`)); err == nil {
			t.Errorf("key %q accepted", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("key %q readable", key)
		}
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	s := open(t, t.TempDir(), 256)
	if err := s.Put("big", []byte(fmt.Sprintf(`{"pad":%q}`, strings.Repeat("z", 1024)))); err == nil {
		t.Fatal("payload larger than the whole budget accepted")
	}
	if s.Len() != 0 {
		t.Fatal("rejected payload left residue")
	}
}

// TestConcurrentAccess exercises the store under the race detector:
// parallel writers, readers, and over-budget eviction.
func TestConcurrentAccess(t *testing.T) {
	payload := []byte(fmt.Sprintf(`{"pad":%q}`, strings.Repeat("c", 64)))
	s := open(t, t.TempDir(), 4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%24)
				if i%3 == 0 {
					if err := s.Put(key, payload); err != nil {
						t.Error(err)
						return
					}
				} else {
					s.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Bytes() > 4096 {
		t.Fatalf("budget exceeded after concurrent load: %d", s.Bytes())
	}
	st := s.StatsNow()
	if st.Writes == 0 || st.Hits == 0 {
		t.Fatalf("stats: %+v", st)
	}
}
