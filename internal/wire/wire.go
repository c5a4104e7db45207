// Package wire is the transport between the CAIDA-side flow sampler and
// the eX-IoT feed server: length-prefixed frames over TCP with
// acknowledgements and transparent reconnection, standing in for the
// paper's socat-to-local-port plus SSH-tunnel arrangement. The design
// goal is the same one the paper states: "if any network communication
// is disrupted, the flow detection and sampling module will go idle
// until the next stage can reconnect ... no data will be lost due to
// network failures."
//
// A connection opens with the "EXW2" magic, then carries 26-byte frame
// headers tagged (shard ID, shard count, per-shard monotone sequence,
// hour epoch) — an unsharded sampler is simply shard 0 of 1. Frames are
// batched into one coalesced write with a single cumulative ack per
// batch, payloads are binary (see pipeline.AppendEncodeEvent), and
// read/write scratch is pooled so steady-state frame I/O does not
// allocate. Delivery is at-least-once and in order: a reconnect replays
// from the first unacknowledged frame, and the receiver performs no
// de-duplication — the (shard, sequence) tags give the downstream
// aggregator everything it needs to drop replayed frames. A frame the
// receiver's handler refuses is never acked: the receiver closes the
// connection and the sender replays, as after any other failure.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"exiot/internal/telemetry"
)

// Telemetry handles for the transport stage (see docs/OPERATIONS.md). A
// rising retry counter with a flat sent counter is the classic signature
// of an unreachable feed server.
var (
	metFramesSent = telemetry.Default().Counter("exiot_wire_frames_sent_total",
		"Frames acknowledged end-to-end by the feed-server receiver.")
	metSendRetries = telemetry.Default().Counter("exiot_wire_send_retries_total",
		"Reconnect-and-resend attempts after a failed frame delivery.")
	metFramesReceived = telemetry.Default().Counter("exiot_wire_frames_received_total",
		"Frames delivered to the receiver's handler (reconnect replays included).")
)

// Kind tags a frame's payload type.
type Kind uint8

// Frame kinds carried between the sampler and the feed server.
const (
	// KindSample carries a sampled scanner flow.
	KindSample Kind = iota + 1
	// KindFlowEnd signals that a scan flow ended.
	KindFlowEnd
	// KindReport carries a per-second packet-level report.
	KindReport
	// KindHourEnd is the hour barrier: the sending shard has emitted
	// every event for the frame's HourEpoch. Its payload is empty.
	KindHourEnd Kind = 5
)

// Version2 marks every frame read off a connection: binary payloads,
// shard/epoch tags. The WAL and snapshots wrap their event payloads in
// a Frame of the same version for pipeline.DecodeEvent. Version 0 — the
// zero value of Frame, never seen on the wire — wraps the legacy JSON
// payloads only the benchmark's codec rungs still produce.
const Version2 = 2

// Frame flags.
const (
	// FlagAckRequest asks the receiver to echo this frame's sequence
	// number once it (and therefore every frame before it on the
	// connection) has been handed to the application: one cumulative ack
	// per coalesced batch.
	FlagAckRequest uint8 = 1 << 0
	// FlagFinal marks the last hour barrier of a shard's run (end of
	// input, the sampler flushed).
	FlagFinal uint8 = 1 << 1
)

// Frame is one transport unit.
type Frame struct {
	Seq     uint64
	Kind    Kind
	Payload []byte

	// Version is Version2 for frames off the wire (see Version2).
	Version    uint8
	Flags      uint8
	ShardID    uint16
	ShardCount uint16
	// HourEpoch is the Unix second of the end of the hour the frame's
	// event belongs to.
	HourEpoch int64
}

// maxFrameSize bounds a frame payload (a 200-packet sample serializes to
// well under this).
const maxFrameSize = 8 << 20

// magicV2 opens every connection; the receiver closes one that starts
// with anything else.
var magicV2 = [4]byte{'E', 'X', 'W', '2'}

// v2HeaderSize is the fixed frame header:
// [8 Seq][1 Kind][1 Flags][2 ShardID][2 ShardCount][8 HourEpoch][4 len].
const v2HeaderSize = 26

// payloadPool recycles frame payload buffers. readFrameV2 draws from it;
// the receiver returns the buffer after the handler runs, so handlers
// must copy anything they retain (every decoder in this codebase does).
var payloadPool sync.Pool // holds *[]byte

func getPayload(n int) []byte {
	if v := payloadPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n, max(n, 4096))
}

func putPayload(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	payloadPool.Put(&b)
}

// appendFrameV2 serializes f onto dst.
func appendFrameV2(dst []byte, f *Frame) []byte {
	var hdr [v2HeaderSize]byte
	binary.BigEndian.PutUint64(hdr[0:], f.Seq)
	hdr[8] = byte(f.Kind)
	hdr[9] = f.Flags
	binary.BigEndian.PutUint16(hdr[10:], f.ShardID)
	binary.BigEndian.PutUint16(hdr[12:], f.ShardCount)
	binary.BigEndian.PutUint64(hdr[14:], uint64(f.HourEpoch))
	binary.BigEndian.PutUint32(hdr[22:], uint32(len(f.Payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, f.Payload...)
}

// readFrameV2 fills f from r; f.Payload comes from the payload pool.
func readFrameV2(r io.Reader, f *Frame) error {
	var hdr [v2HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[22:])
	if n > maxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	f.Seq = binary.BigEndian.Uint64(hdr[0:])
	f.Kind = Kind(hdr[8])
	f.Flags = hdr[9]
	f.ShardID = binary.BigEndian.Uint16(hdr[10:])
	f.ShardCount = binary.BigEndian.Uint16(hdr[12:])
	f.HourEpoch = int64(binary.BigEndian.Uint64(hdr[14:]))
	f.Version = Version2
	f.Payload = getPayload(int(n))
	_, err := io.ReadFull(r, f.Payload)
	return err
}

// senderFlushSize is the coalesced-write threshold: Queue auto-flushes
// once this much encoded frame data is pending.
const senderFlushSize = 128 << 10

// A Flush waits senderRetryInterval between reconnect attempts and gives
// up after senderMaxRetries of them: ten seconds of an unreachable or
// refusing receiver.
const (
	senderRetryInterval = 50 * time.Millisecond
	senderMaxRetries    = 200
)

// Sender ships one shard's frames to a receiver with at-least-once
// delivery: frames accumulate via Queue into one pooled write buffer, go
// out as a single coalesced write with one cumulative ack, and an
// unacknowledged batch replays wholesale on reconnect — the sender goes
// idle, retrying, until the receiver is reachable again. The receiver
// delivers everything and the downstream aggregator drops replayed
// (shard, sequence) pairs. A flush that runs out of retries gives the
// sender up for good: every later call returns that error at once.
type Sender struct {
	addr string
	// retryInterval and maxRetries start at senderRetryInterval and
	// senderMaxRetries; tests shorten them.
	retryInterval time.Duration
	maxRetries    int

	mu     sync.Mutex
	conn   net.Conn
	seq    uint64
	closed bool
	err    error // the flush failure that gave the sender up

	shardID    uint16
	shardCount uint16
	wbuf       []byte // encoded, unflushed frames
	nQueued    int64  // frames in wbuf
	flagsOff   int    // offset of the last queued frame's Flags byte
}

// NewSenderV2 creates a sender for shard shardID of shardCount (0 of 1
// for an unsharded sampler). No connection is made until the first
// Flush.
func NewSenderV2(addr string, shardID, shardCount int) *Sender {
	return &Sender{
		addr:          addr,
		retryInterval: senderRetryInterval,
		maxRetries:    senderMaxRetries,
		shardID:       uint16(shardID),
		shardCount:    uint16(shardCount),
	}
}

// Queue appends one event frame to the pending batch, copying payload
// into the sender's write buffer (the caller may reuse payload
// immediately). The batch flushes automatically once it reaches the
// coalescing threshold, or explicitly via Flush/Barrier.
func (s *Sender) Queue(kind Kind, hourEpoch int64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queueLocked(kind, hourEpoch, 0, payload)
}

// Barrier queues a KindHourEnd marker for hourEpoch — "this shard has
// emitted every event of this hour" — and flushes the pending batch so
// the aggregator can close the hour. final marks the shard's last
// barrier (end of input).
func (s *Sender) Barrier(hourEpoch int64, final bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var flags uint8
	if final {
		flags = FlagFinal
	}
	if err := s.queueLocked(KindHourEnd, hourEpoch, flags, nil); err != nil {
		return err
	}
	return s.flushLocked()
}

func (s *Sender) queueLocked(kind Kind, hourEpoch int64, flags uint8, payload []byte) error {
	if s.closed {
		return errors.New("wire: sender closed")
	}
	if s.err != nil {
		return s.err
	}
	s.seq++
	f := Frame{
		Seq:        s.seq,
		Kind:       kind,
		Flags:      flags,
		ShardID:    s.shardID,
		ShardCount: s.shardCount,
		HourEpoch:  hourEpoch,
		Payload:    payload,
	}
	s.flagsOff = len(s.wbuf) + 9
	s.wbuf = appendFrameV2(s.wbuf, &f)
	s.nQueued++
	if len(s.wbuf) >= senderFlushSize {
		return s.flushLocked()
	}
	return nil
}

// Flush sends the pending batch as one coalesced write and blocks until
// the receiver's cumulative ack covers it, reconnecting and replaying
// the whole batch as needed. A no-op when nothing is queued.
func (s *Sender) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("wire: sender closed")
	}
	return s.flushLocked()
}

func (s *Sender) flushLocked() error {
	if s.err != nil || len(s.wbuf) == 0 {
		return s.err
	}
	// The last frame of the batch carries the ack request; its echoed
	// sequence acknowledges the entire batch.
	s.wbuf[s.flagsOff] |= FlagAckRequest
	attempts := 0
	for {
		err := s.tryFlush()
		if err == nil {
			metFramesSent.Add(s.nQueued)
			s.wbuf = s.wbuf[:0]
			s.nQueued = 0
			return nil
		}
		// Replay wholesale: the connection dies with an unknown amount
		// delivered; the batch stays intact until acknowledged and the
		// downstream aggregator discards the replayed prefix.
		s.dropConn()
		metSendRetries.Inc()
		attempts++
		if attempts >= s.maxRetries {
			if errors.Is(err, errNoAck) {
				s.err = fmt.Errorf("wire: flush through seq %d: receiver refused it after %d attempts: %w", s.seq, attempts, err)
			} else {
				s.err = fmt.Errorf("wire: flush through seq %d: receiver unreachable after %d attempts", s.seq, attempts)
			}
			return s.err
		}
		time.Sleep(s.retryInterval)
	}
}

// errNoAck marks a flush the receiver took without acking it: it closed
// the connection, which is how a receiver refuses a frame.
var errNoAck = errors.New("connection closed without an ack")

func (s *Sender) tryFlush() error {
	if s.conn == nil {
		conn, err := net.Dial("tcp", s.addr)
		if err != nil {
			return err
		}
		if _, err := conn.Write(magicV2[:]); err != nil {
			conn.Close()
			return err
		}
		s.conn = conn
	}
	if _, err := s.conn.Write(s.wbuf); err != nil {
		return fmt.Errorf("%w (%v)", errNoAck, err)
	}
	var ack [8]byte
	if err := s.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	if _, err := io.ReadFull(s.conn, ack[:]); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return err // a slow receiver, not a refusal
		}
		return fmt.Errorf("%w (%v)", errNoAck, err)
	}
	if got := binary.BigEndian.Uint64(ack[:]); got != s.seq {
		return fmt.Errorf("wire: cumulative ack %d, want %d", got, s.seq)
	}
	return nil
}

func (s *Sender) dropConn() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

// ResetConn drops the current connection without sending anything, as if
// the network had failed. The next Flush transparently reconnects and
// replays the unacknowledged batch. Test hook.
func (s *Sender) ResetConn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropConn()
}

// Close flushes any pending batch and releases the connection. A sender
// that has given up makes no further attempt.
func (s *Sender) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if !s.closed {
		err = s.flushLocked()
	}
	s.closed = true
	s.dropConn()
	return err
}

// Receiver accepts sender connections and delivers their frames to a
// handler. Every frame is delivered, reconnect replays included (the
// shard/sequence tags let the aggregator de-duplicate), and acks go out
// only on FlagAckRequest, after the handler returns. A handler that
// returns an error refuses the frame: the receiver closes the connection
// without acking, so the sender replays from its first unacked frame.
// Frame payloads are pooled: they are valid only for the duration of the
// handler call, which must copy anything it retains.
type Receiver struct {
	ln      net.Listener
	handler func(Frame) error

	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool
	conns  map[net.Conn]struct{}
}

// NewReceiver is Listen with a handler that refuses nothing.
//
// Deprecated: use Listen. Kept only for callers under bench/.
func NewReceiver(addr string, handler func(Frame)) (*Receiver, error) {
	return Listen(addr, func(f Frame) error { handler(f); return nil })
}

// Listen listens on addr ("host:0" picks a free port) and invokes
// handler for every frame, in arrival order per connection. An error
// from handler refuses the frame (see Receiver).
func Listen(addr string, handler func(Frame) error) (*Receiver, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	r := &Receiver{ln: ln, handler: handler, conns: make(map[net.Conn]struct{})}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr returns the receiver's listen address.
func (r *Receiver) Addr() string { return r.ln.Addr().String() }

func (r *Receiver) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return
		}
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer func() {
				r.mu.Lock()
				delete(r.conns, conn)
				r.mu.Unlock()
			}()
			r.serve(conn)
		}()
	}
}

func (r *Receiver) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	var magic [len(magicV2)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != magicV2 {
		return
	}
	var f Frame
	for {
		if err := readFrameV2(br, &f); err != nil {
			return
		}
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return
		}
		// Deliver everything, replays included: de-duplication belongs
		// to the aggregator, which tracks a sequence per shard — a
		// receiver-global watermark would wrongly drop frames when
		// several shards share the listener. Deliver before acking so an
		// acked frame is never lost.
		metFramesReceived.Inc()
		err := r.handler(f)
		putPayload(f.Payload)
		f.Payload = nil
		if err != nil {
			return
		}
		if f.Flags&FlagAckRequest != 0 {
			var ack [8]byte
			binary.BigEndian.PutUint64(ack[:], f.Seq)
			if _, err := conn.Write(ack[:]); err != nil {
				return
			}
		}
	}
}

// Close stops accepting, tears down open connections, and waits for
// in-flight handlers.
func (r *Receiver) Close() error {
	r.mu.Lock()
	r.closed = true
	for conn := range r.conns {
		conn.Close()
	}
	r.mu.Unlock()
	err := r.ln.Close()
	r.wg.Wait()
	return err
}
