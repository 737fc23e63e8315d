package cluster

// The fuzz target for the thief's side of the steal protocol. Run the
// seeds as a regular test, or explore with
// `go test -fuzz FuzzStealFromResponse ./internal/cluster`.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// FuzzStealFromResponse serves arbitrary bodies as a victim's 200 answer
// to POST /v1/steal. StealFrom must never panic, and a steal it reports ok
// must carry a job with the ID the result push names.
func FuzzStealFromResponse(f *testing.F) {
	var body atomic.Pointer[[]byte]
	victim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(*body.Load())
	}))
	f.Cleanup(victim.Close)
	n, err := New(Config{Self: "thief:1", Peers: []string{"thief:1", peerAddr(victim)}})
	if err != nil {
		f.Fatal(err)
	}
	spec := JobSpec{Circuit: "s9234", Device: "XC3020", Method: "fpart", TimeoutMS: 50}
	for _, sj := range []StolenJob{
		{ID: "job-3", Key: "deadbeef", Spec: spec},
		{ID: "", Key: "deadbeef", Spec: spec},
		{ID: "job-4", Spec: JobSpec{Netlist: "n 1 2\n", Format: "phg", Device: "LUT:400,DSP:12/200"}},
	} {
		raw, err := json.Marshal(sj)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"id":"job-5","spec":{"device":"XC3020"}}{"id":"job-6"}`))
	f.Add([]byte(`{"id":7}`))
	f.Add([]byte(`{"id":"job-8","spec":`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		body.Store(&raw)
		job, ok, err := n.StealFrom(context.Background(), peerAddr(victim))
		if ok && (err != nil || job == nil || job.ID == "") {
			t.Fatalf("ok steal with job %+v, err %v", job, err)
		}
		if !ok && job != nil {
			t.Fatalf("refused steal returned job %+v", job)
		}
	})
}
