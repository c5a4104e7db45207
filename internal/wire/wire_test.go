package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector gathers delivered frames. Payload buffers are pooled and
// only valid during the handler call, so the collector copies them —
// the same contract every real handler follows.
type collector struct {
	mu     sync.Mutex
	frames []Frame
}

func (c *collector) handle(f Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f.Payload = append([]byte(nil), f.Payload...)
	c.frames = append(c.frames, f)
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *collector) frame(i int) Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames[i]
}

// TestFrameRoundTrip reads a coalesced batch back frame by frame: an
// event, an empty-payload barrier, another event, then a clean EOF.
func TestFrameRoundTrip(t *testing.T) {
	in := []Frame{
		{Seq: 42, Kind: KindSample, HourEpoch: 3600, Payload: []byte("hello")},
		{Seq: 43, Kind: KindHourEnd, Flags: FlagAckRequest, HourEpoch: 3600},
		{Seq: 44, Kind: KindReport, HourEpoch: 7200, Payload: []byte("next hour")},
	}
	var batch []byte
	for i := range in {
		batch = appendFrameV2(batch, &in[i])
	}
	r := bytes.NewReader(batch)
	for i, want := range in {
		var out Frame
		if err := readFrameV2(r, &out); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if out.Seq != want.Seq || out.Kind != want.Kind || out.Flags != want.Flags ||
			out.HourEpoch != want.HourEpoch || !bytes.Equal(out.Payload, want.Payload) {
			t.Errorf("frame %d roundtrip = %+v, want %+v", i, out, want)
		}
	}
	var out Frame
	if err := readFrameV2(r, &out); err != io.EOF {
		t.Errorf("read past the batch: %v, want io.EOF", err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	f := Frame{Seq: 1, Kind: KindSample, Payload: make([]byte, 16)}
	raw := appendFrameV2(nil, &f)
	// Corrupt the length field to exceed the cap.
	raw[22], raw[23], raw[24], raw[25] = 0xFF, 0xFF, 0xFF, 0xFF
	var out Frame
	if err := readFrameV2(bytes.NewReader(raw), &out); err == nil {
		t.Error("oversized frame accepted")
	}
}

// TestSendReceive flushes after every frame — the stop-and-wait extreme
// of the batching range: each frame is acked before the next is queued.
func TestSendReceive(t *testing.T) {
	var c collector
	r, err := NewReceiver("127.0.0.1:0", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	s := NewSenderV2(r.Addr(), 0, 1)
	defer s.Close()
	for i := 0; i < 20; i++ {
		if err := s.Queue(KindSample, 3600, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if c.len() != i+1 {
			t.Fatalf("after flush %d: %d frames delivered", i, c.len())
		}
	}
	for i := 0; i < 20; i++ {
		f := c.frame(i)
		if string(f.Payload) != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("frame %d payload %q", i, f.Payload)
		}
		if f.Seq != uint64(i+1) {
			t.Fatalf("frame %d seq %d", i, f.Seq)
		}
	}
}

// TestReconnectWithoutLoss closes the connection underneath the sender
// (it only finds out when the next flush fails mid-write or mid-ack).
func TestReconnectWithoutLoss(t *testing.T) {
	var c collector
	r, err := NewReceiver("127.0.0.1:0", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	s := NewSenderV2(r.Addr(), 0, 1)
	s.retryInterval = time.Millisecond
	defer s.Close()
	if err := s.Queue(KindSample, 3600, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Kill the connection out from under the sender.
	s.mu.Lock()
	s.conn.Close()
	s.mu.Unlock()

	// The next flush must transparently reconnect and deliver.
	if err := s.Queue(KindSample, 3600, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.len() != 2 {
		t.Fatalf("delivered %d frames, want 2", c.len())
	}
	if string(c.frame(1).Payload) != "two" {
		t.Errorf("frame 1 = %q", c.frame(1).Payload)
	}
}

func TestSenderGoesIdleUntilReceiverUp(t *testing.T) {
	// Start the sender first: it must keep retrying ("go idle") until
	// the receiver appears, then deliver.
	var c collector

	// Reserve an address by binding and closing.
	tmp, err := NewReceiver("127.0.0.1:0", func(Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	addr := tmp.Addr()
	tmp.Close()

	s := NewSenderV2(addr, 0, 1)
	s.retryInterval = 10 * time.Millisecond
	defer s.Close()
	if err := s.Queue(KindFlowEnd, 3600, []byte("late")); err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() { errc <- s.Flush() }()

	time.Sleep(50 * time.Millisecond) // sender is spinning idle
	r, err := NewReceiver(addr, c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flush never completed after receiver came up")
	}
	if c.len() != 1 || string(c.frame(0).Payload) != "late" {
		t.Fatalf("frames = %d", c.len())
	}
}

func TestSenderGivesUpAfterMaxRetries(t *testing.T) {
	s := NewSenderV2("127.0.0.1:1", 0, 1) // nothing listens on port 1
	s.retryInterval = time.Millisecond
	s.maxRetries = 3
	if err := s.Queue(KindSample, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("flush to dead address = %v, want unreachable after maxRetries", err)
	}
	// The batch is still unacknowledged, so Close reports the same
	// failure instead of dropping it silently.
	if err := s.Close(); err == nil {
		t.Error("close with an undeliverable batch should report it")
	}
}

// TestSenderStaysGivenUp: once a Flush runs out of retries against a
// receiver that refuses everything, Queue, Barrier, Flush and Close all
// return that failure without reaching the receiver again.
func TestSenderStaysGivenUp(t *testing.T) {
	var calls atomic.Int64
	r, err := Listen("127.0.0.1:0", func(f Frame) error {
		calls.Add(1)
		return fmt.Errorf("frame %d refused", f.Seq)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	s := NewSenderV2(r.Addr(), 0, 1)
	s.retryInterval = time.Millisecond
	s.maxRetries = 3
	if err := s.Queue(KindSample, 3600, []byte("x")); err != nil {
		t.Fatal(err)
	}
	gaveUp := s.Flush()
	if gaveUp == nil || !errors.Is(gaveUp, errNoAck) {
		t.Fatalf("Flush against a refusing receiver = %v, want the refusal", gaveUp)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("handler called %d times by Flush, want 3 (one per attempt)", got)
	}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Queue", func() error { return s.Queue(KindSample, 3600, []byte("y")) }},
		{"Barrier", func() error { return s.Barrier(3600, true) }},
		{"Flush", s.Flush},
		{"Close", s.Close},
	} {
		if err := c.call(); !errors.Is(err, gaveUp) {
			t.Errorf("%s after giving up = %v, want %v", c.name, err, gaveUp)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("handler called %d times in all, want 3: a given-up sender made another attempt", got)
	}
}

// TestRefusedFrameIsNotAcked: a handler that refuses frame k gets no
// ack sent for it. The receiver closes the connection, the sender
// replays the unacked batch from its first frame, and once its retries
// run out Flush says the receiver refused, and goes on saying so without
// another attempt.
func TestRefusedFrameIsNotAcked(t *testing.T) {
	const k = 5
	var (
		mu        sync.Mutex
		refuse    = true
		delivered []uint64
	)
	r, err := Listen("127.0.0.1:0", func(f Frame) error {
		mu.Lock()
		defer mu.Unlock()
		delivered = append(delivered, f.Seq)
		if refuse && f.Seq == k {
			return fmt.Errorf("frame %d refused", f.Seq)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	s := NewSenderV2(r.Addr(), 0, 1)
	s.retryInterval = time.Millisecond
	s.maxRetries = 3
	defer s.Close()
	queue := func(from, to uint64) {
		for seq := from; seq <= to; seq++ {
			if err := s.Queue(KindSample, 3600, []byte{byte(seq)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	queue(1, 2)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Frame k is the batch's last, so it carries the ack request.
	queue(3, k)
	refusal := s.Flush()
	if refusal == nil || !strings.Contains(refusal.Error(), "refused") || !errors.Is(refusal, errNoAck) {
		t.Fatalf("Flush over a refused frame = %v, want the receiver's refusal", refusal)
	}
	mu.Lock()
	want := []uint64{1, 2, 3, 4, k, 3, 4, k, 3, 4, k}
	if fmt.Sprint(delivered) != fmt.Sprint(want) {
		t.Errorf("delivered %v, want %v: the batch replayed from its first unacked frame on each of 3 attempts", delivered, want)
	}
	mu.Unlock()

	// Straight at the receiver: frame k with the ack request gets the
	// connection closed, not an ack.
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f := Frame{Seq: k, Kind: KindSample, Flags: FlagAckRequest, ShardCount: 1}
	if _, err := conn.Write(appendFrameV2(append([]byte(nil), magicV2[:]...), &f)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ack [8]byte
	var ne net.Error
	if n, err := conn.Read(ack[:]); n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("read %d bytes, err %v; want the connection closed with no ack", n, err)
	}

	// The sender has given up: even once the handler would accept, Flush
	// repeats the refusal and sends nothing.
	mu.Lock()
	refuse, delivered = false, nil
	mu.Unlock()
	if err := s.Flush(); !errors.Is(err, refusal) {
		t.Fatalf("Flush after giving up = %v, want %v", err, refusal)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != 0 {
		t.Errorf("a given-up sender delivered %v", delivered)
	}
}

func TestSenderClosed(t *testing.T) {
	s := NewSenderV2("127.0.0.1:1", 0, 1)
	s.Close()
	if err := s.Queue(KindSample, 0, nil); err == nil {
		t.Error("queue on closed sender should fail")
	}
	if err := s.Flush(); err == nil {
		t.Error("flush on closed sender should fail")
	}
}

// TestNonMagicPreambleClosed: a connection that does not open with the
// EXW2 magic is closed without a single handler call, however
// frame-shaped the bytes that follow.
func TestNonMagicPreambleClosed(t *testing.T) {
	var c collector
	r, err := NewReceiver("127.0.0.1:0", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f := Frame{Seq: 1, Kind: KindSample, Flags: FlagAckRequest, ShardCount: 1, Payload: []byte("smuggled")}
	if _, err := conn.Write(appendFrameV2([]byte("EXW1"), &f)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ack [8]byte
	// EOF, or a reset if the close raced bytes still in flight.
	var ne net.Error
	if n, err := conn.Read(ack[:]); n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("read %d bytes, err %v; want the connection closed with no ack", n, err)
	}
	if c.len() != 0 {
		t.Errorf("handler saw %d frames from a connection without the magic", c.len())
	}
}

func TestFrameV2RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{
		Seq:        7,
		Kind:       KindHourEnd,
		Flags:      FlagAckRequest | FlagFinal,
		ShardID:    2,
		ShardCount: 5,
		HourEpoch:  1617894000,
		Payload:    []byte("payload"),
	}
	buf.Write(appendFrameV2(nil, &in))
	var out Frame
	if err := readFrameV2(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.Kind != in.Kind || out.Flags != in.Flags ||
		out.ShardID != in.ShardID || out.ShardCount != in.ShardCount ||
		out.HourEpoch != in.HourEpoch || string(out.Payload) != "payload" ||
		out.Version != Version2 {
		t.Errorf("roundtrip = %+v", out)
	}
}

func TestQueueFlushDeliversBatch(t *testing.T) {
	var c collector
	r, err := NewReceiver("127.0.0.1:0", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	s := NewSenderV2(r.Addr(), 1, 3)
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Queue(KindSample, 3600, []byte(fmt.Sprintf("ev-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if c.len() != 0 {
		t.Fatalf("frames delivered before Flush: %d", c.len())
	}
	if err := s.Barrier(3600, false); err != nil {
		t.Fatal(err)
	}
	if c.len() != 51 {
		t.Fatalf("delivered %d frames, want 51", c.len())
	}
	for i := 0; i < 50; i++ {
		f := c.frame(i)
		if f.Version != Version2 || f.ShardID != 1 || f.ShardCount != 3 || f.HourEpoch != 3600 {
			t.Fatalf("frame %d tags = %+v", i, f)
		}
		if string(f.Payload) != fmt.Sprintf("ev-%d", i) {
			t.Fatalf("frame %d payload %q", i, f.Payload)
		}
		if f.Seq != uint64(i+1) {
			t.Fatalf("frame %d seq %d", i, f.Seq)
		}
	}
	last := c.frame(50)
	if last.Kind != KindHourEnd || last.Flags&FlagAckRequest == 0 || last.Flags&FlagFinal != 0 {
		t.Fatalf("barrier frame = %+v", last)
	}
}

func TestQueueAutoFlushAtThreshold(t *testing.T) {
	var c collector
	r, err := NewReceiver("127.0.0.1:0", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	s := NewSenderV2(r.Addr(), 0, 1)
	defer s.Close()
	// Push well past the coalescing threshold without an explicit Flush.
	big := make([]byte, 32<<10)
	for i := 0; i < 8; i++ {
		if err := s.Queue(KindSample, 0, big); err != nil {
			t.Fatal(err)
		}
	}
	if c.len() == 0 {
		t.Fatal("no auto-flush at the coalescing threshold")
	}
}

func TestV2ReconnectReplaysBatch(t *testing.T) {
	var c collector
	r, err := NewReceiver("127.0.0.1:0", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	s := NewSenderV2(r.Addr(), 0, 2)
	s.retryInterval = time.Millisecond
	defer s.Close()
	if err := s.Queue(KindSample, 3600, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Kill the connection between batches: the next Flush must
	// transparently reconnect (re-sending the magic) and deliver.
	s.ResetConn()
	if err := s.Queue(KindSample, 3600, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.len() != 2 {
		t.Fatalf("delivered %d frames, want 2", c.len())
	}
	if string(c.frame(1).Payload) != "b" || c.frame(1).Seq != 2 {
		t.Fatalf("frame 1 = %+v", c.frame(1))
	}
}

// TestPooledFramesConcurrent exercises the pooled payload path from
// several concurrent senders; run with -race it proves a recycled
// buffer is never shared with a live handler call.
func TestPooledFramesConcurrent(t *testing.T) {
	var total sync.WaitGroup
	var c collector
	r, err := NewReceiver("127.0.0.1:0", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const senders, frames = 4, 200
	for i := 0; i < senders; i++ {
		total.Add(1)
		go func(shard int) {
			defer total.Done()
			s := NewSenderV2(r.Addr(), shard, senders)
			defer s.Close()
			for j := 0; j < frames; j++ {
				if err := s.Queue(KindSample, 3600, []byte(fmt.Sprintf("s%d-f%d", shard, j))); err != nil {
					t.Error(err)
					return
				}
				if j%50 == 49 {
					if err := s.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if err := s.Flush(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	total.Wait()
	if c.len() != senders*frames {
		t.Fatalf("delivered %d frames, want %d", c.len(), senders*frames)
	}
}
