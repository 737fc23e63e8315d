package service

// The fuzz target for the outer JSON of the steal protocol's two victim
// endpoints, POST /v1/steal and POST /v1/internal/result; FuzzDecodeStored
// covers the result envelope inside. Run the seeds as a regular test, or
// explore with `go test -fuzz FuzzStealEndpoints ./internal/service`.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzStealEndpoints posts arbitrary bodies to both endpoints of a victim
// with no queued job and one finished job. No body may panic them. A steal
// answers 204 (nothing is queued). A push answers 200 only when it names
// the finished job (a stale push), and otherwise a JSON 400 or 413.
func FuzzStealEndpoints(f *testing.F) {
	s := New(Config{Workers: 1, MaxRequestBytes: 1 << 12})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	done, err := s.Submit(phgRequest(tinyPHG))
	if err != nil {
		f.Fatal(err)
	}
	<-done.Done()
	h := s.Handler()

	_, env := storedFor(f, phgRequest(tinyPHG))
	for _, id := range []string{done.ID(), "job-999", ""} {
		raw, err := json.Marshal(map[string]any{"id": id, "envelope": json.RawMessage(env)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"from":"127.0.0.1:4000"}`))
	f.Add([]byte(`{"id":"` + done.ID() + `","envelope":{`))
	f.Add([]byte(`{"id":7,"envelope":null}`))
	f.Add([]byte(`{"from":""}{"id":"x"}`))
	f.Add([]byte(`null`))
	f.Add(bytes.Repeat([]byte(" "), 1<<13))
	f.Fuzz(func(t *testing.T, raw []byte) {
		post := func(path string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
			return rec
		}
		if rec := post("/v1/steal"); rec.Code != http.StatusNoContent {
			t.Fatalf("steal from an idle victim: HTTP %d %s", rec.Code, rec.Body)
		}
		rec := post("/v1/internal/result")
		switch rec.Code {
		case http.StatusOK:
			var req struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(raw, &req); err != nil || req.ID != done.ID() {
				t.Fatalf("push accepted without naming %s: %s", done.ID(), raw)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Fatalf("HTTP %d without a JSON error: %q", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("push: HTTP %d %s", rec.Code, rec.Body)
		}
	})
}
