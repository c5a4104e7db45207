package pipeline

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"exiot/internal/trw"
)

// TestSamplerEmitsCanonicalOrderFromAnyDetectorOrder pins what makes the
// canonical order the only order: whatever order detector events reach
// the Sampler in, the stream it emits at the barrier is byte-identical. A simnet hour's detector events (reports, full and
// short samples, flow ends) go through one Sampler in detector order and
// in seven seeded shuffles.
func TestSamplerEmitsCanonicalOrderFromAnyDetectorOrder(t *testing.T) {
	w := newWorld(simnetSmall(77))
	pkts := w.GenerateHour(w.Start())
	var detected []trw.Event
	det := trw.NewDetector(trw.Default(), func(e trw.Event) { detected = append(detected, e) })
	for i := range pkts {
		det.Process(&pkts[i])
	}
	// Flush rather than EndHour, so the hour also carries short samples
	// and a flow end per scanner.
	det.Flush(w.Start().Add(time.Hour))

	var stream []byte
	kinds := map[SamplerEventKind]int{}
	s := NewSampler(trw.Default(), 0, func(e SamplerEvent) {
		kinds[e.Kind]++
		kind, data, err := AppendEncodeEvent(stream, e)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(data, byte(kind))
	})
	emitted := func(events []trw.Event) []byte {
		stream = nil
		for _, e := range events {
			// The sampler recycles sample buffers it is handed.
			e.Sample = slices.Clone(e.Sample)
			s.onDetectorEvent(e)
		}
		s.flushPending()
		return stream
	}

	want := emitted(detected)
	if kinds[SamplerBatch] == 0 || kinds[SamplerFlowEnd] == 0 || kinds[SamplerReport] == 0 {
		t.Fatalf("hour lacks an event kind: %v", kinds)
	}
	for seed := int64(1); seed <= 7; seed++ {
		shuffled := slices.Clone(detected)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if got := emitted(shuffled); !bytes.Equal(got, want) {
			t.Fatalf("shuffle %d: emitted stream differs from detector order (%d vs %d bytes)", seed, len(got), len(want))
		}
	}
}
