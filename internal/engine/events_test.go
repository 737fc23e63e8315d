package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"fpart/internal/obs"
)

// eventSequence renders the type sequence of a stream and an FNV-64a hash
// over every event's payload with the timestamp zeroed.
func eventSequence(events []obs.Event) (string, string) {
	types := make([]string, len(events))
	hash := fnv.New64a()
	for i, e := range events {
		types[i] = e.Type.String()
		e.At = 0
		fmt.Fprintf(hash, "%+v\n", e)
	}
	return strings.Join(types, " "), fmt.Sprintf("%016x", hash.Sum64())
}

// TestEngineEventSequence pins the event stream of a completed run of the
// peeling baselines on c3540/XC3042: the type sequence verbatim and the
// payloads (iteration, blocks, sizes, moves, K, M, ...) by hash. The
// streams were captured before the baselines moved onto core's peel loop.
func TestEngineEventSequence(t *testing.T) {
	h, dev := goldenCircuit(t, "c3540", "XC3042")
	for _, method := range []string{"kwayx", "flow", "multilevel"} {
		t.Run(method, func(t *testing.T) {
			var c obs.Collector
			if _, err := Run(context.Background(), method, h, dev, Options{Sink: &c}); err != nil {
				t.Fatal(err)
			}
			seq, hash := eventSequence(c.Events())
			want := eventSequenceWant[method]
			if seq != want[0] || hash != want[1] {
				t.Errorf("%s event stream drifted:\n got %q, %q\nwant %q, %q", method, seq, hash, want[0], want[1])
			}
		})
	}
}

var eventSequenceWant = map[string][2]string{
	"kwayx": {"run-start bipartition-start bipartition-end improve-pass bipartition-start bipartition-end improve-pass run-end",
		"aa688942d1c312d8"},
	"flow": {"run-start bipartition-start bipartition-end bipartition-start bipartition-end run-end",
		"4393e0232621ee6f"},
	"multilevel": {"run-start bipartition-start bipartition-end bipartition-start bipartition-end run-end",
		"ab7196ccb3431d23"},
}
