package service

// The fuzz target for the job JSON of POST /v1/partition. Run the seeds as
// a regular test, or explore with
// `go test -fuzz FuzzSubmitRequest ./internal/service`.

import (
	"context"
	"encoding/json"
	"testing"

	"fpart/internal/engine"
	"fpart/internal/netlist"
)

// FuzzSubmitRequest feeds raw request bodies through the submit path up
// to admission: strict decoding, the wire-to-request mapping and prepare,
// on a service with tight parser limits. No body may panic it. A request
// prepare accepts must carry a device that passes Validate and a
// registered method, and preparing it again must give the same
// fingerprint.
func FuzzSubmitRequest(f *testing.F) {
	s := New(Config{Workers: 1, Limits: netlist.Limits{MaxLineBytes: 1 << 10, MaxNodes: 64, MaxNets: 64, MaxPins: 16}})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	for _, req := range []apiRequest{
		{Circuit: "c3540", Device: "XC3020"},
		{Netlist: tinyPHG, Format: "phg", Device: "XC3042", Method: "kwayx"},
		{Circuit: "c3540", Device: "XC3042", Resources: "DSP:12,BRAM:4"},
		{Netlist: tinyPHG, Format: "phg", Device: "XC3020", Board: "mesh:2x2:wires=64"},
		{Circuit: "c3540", Device: "XC3020", Fill: 0.001},
		{Netlist: tinyPHG, Format: "phg", Device: "LUT:400,DSP:12/200", TimeoutMS: 50},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"circuit":"c3540","device":"XC3020","bogus":1}`))
	f.Add([]byte(`{"device":"XC3020","fill":-1}`))
	f.Add([]byte(`{"circuit":"c3540","device":"XC3020"}{"circuit":"s9234"}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req apiRequest
		if err := decodeStrict(raw, &req); err != nil {
			return
		}
		prep, err := s.prepare(req.toRequest())
		if err != nil {
			return
		}
		if err := prep.dev.Validate(); err != nil {
			t.Fatalf("accepted request carries an invalid device: %v", err)
		}
		if _, err := engine.Lookup(prep.method); err != nil {
			t.Fatalf("accepted request names unknown method %q", prep.method)
		}
		again, err := s.prepare(req.toRequest())
		if err != nil {
			t.Fatalf("second prepare of an accepted request failed: %v", err)
		}
		if again.key != prep.key {
			t.Fatalf("fingerprint %s on the second prepare, %s on the first", again.key, prep.key)
		}
	})
}
