package store

// FuzzStoreEnvelope runs as a plain test over its seed corpus; explore
// further with `go test -fuzz FuzzStoreEnvelope ./internal/store`.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreEnvelope writes arbitrary bytes as the file of a valid key and
// reads it back. Get must not panic. It may accept the file only when the
// envelope names the key and carries a JSON payload with its SHA-256;
// otherwise the read is a counted miss and the file is gone.
func FuzzStoreEnvelope(f *testing.F) {
	const key = "k0"
	env := func(version int, key, sum string, payload string) []byte {
		raw, err := json.Marshal(envelope{Version: version, Key: key, Sum: sum, Payload: json.RawMessage(payload)})
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	good := `{"k":3,"assign":[0,1,1]}`
	f.Add(env(Version, key, payloadSum([]byte(good)), good))
	f.Add(env(Version, "k1", payloadSum([]byte(good)), good))
	f.Add(env(Version+1, key, payloadSum([]byte(good)), good))
	f.Add(env(Version, key, payloadSum([]byte(good+" ")), good))
	f.Add(env(Version, key, payloadSum([]byte("null")), "null"))
	f.Add(env(Version, key, payloadSum(nil), "null")[:40])
	f.Add([]byte(`{"version":1,"key":"k0","sum":"` + payloadSum(nil) + `"}`))
	f.Add([]byte(`{"VERSION":1,"Key":"k0","key":"k1"}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, '{'})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, key+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		payload, ok := s.Get(key)
		st := s.StatsNow()
		if !ok {
			if st.Misses != 1 || st.Corrupt != 1 || st.Hits != 0 {
				t.Fatalf("refused read counted as %+v, want one corrupt miss", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("refused file still on disk (stat error %v)", err)
			}
			if st.Entries != 0 || st.Bytes != 0 {
				t.Fatalf("refused entry still indexed: %+v", st)
			}
			return
		}
		var head struct {
			Key string `json:"key"`
			Sum string `json:"sum"`
		}
		if err := json.Unmarshal(data, &head); err != nil {
			t.Fatalf("accepted a file that is not a JSON object: %v", err)
		}
		if !json.Valid(payload) {
			t.Fatalf("accepted payload %q is not one JSON value, which Put never stores", payload)
		}
		sum := sha256.Sum256(payload)
		if head.Key != key || head.Sum != hex.EncodeToString(sum[:]) {
			t.Fatalf("accepted envelope key %q sum %q for key %q, payload sum %x", head.Key, head.Sum, key, sum)
		}
		if st.Hits != 1 || st.Misses != 0 || st.Corrupt != 0 {
			t.Fatalf("accepted read counted as %+v", st)
		}
	})
}
