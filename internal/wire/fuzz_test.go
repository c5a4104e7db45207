package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrameV2 reads arbitrary bytes as a frame stream, the way a
// connection handler does after the magic. Nothing may panic, no payload
// may exceed the frame cap, and every frame that reads must re-serialize
// to exactly the bytes it was read from.
func FuzzReadFrameV2(f *testing.F) {
	frames := []Frame{
		{Seq: 7, Kind: KindHourEnd, Flags: FlagAckRequest | FlagFinal, ShardID: 2, ShardCount: 5, HourEpoch: 1617894000, Payload: []byte("payload")},
		{Seq: 42, Kind: KindSample, ShardCount: 1, HourEpoch: 3600, Payload: []byte("hello")},
		{Seq: 43, Kind: KindHourEnd, Flags: FlagAckRequest, ShardCount: 1, HourEpoch: 3600},
	}
	var batch []byte
	for i := range frames {
		f.Add(appendFrameV2(nil, &frames[i]))
		batch = appendFrameV2(batch, &frames[i])
	}
	f.Add(batch)
	oversize := appendFrameV2(nil, &frames[1])
	copy(oversize[22:26], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(oversize)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			var fr Frame
			if err := readFrameV2(r, &fr); err != nil {
				return
			}
			if len(fr.Payload) > maxFrameSize {
				t.Fatalf("read a %d-byte payload, over the %d cap", len(fr.Payload), maxFrameSize)
			}
			if fr.Version != Version2 {
				t.Fatalf("frame read with Version %d", fr.Version)
			}
			again := appendFrameV2(nil, &fr)
			if end := len(data) - r.Len(); !bytes.Equal(again, data[start:end]) {
				t.Fatalf("frame at offset %d re-serializes to %x, read from %x", start, again, data[start:end])
			}
			putPayload(fr.Payload)
		}
	})
}
