// Package replay re-emits recorded pcap captures into the live pipeline
// at a configurable time-warp factor, turning the TRW→probe→classify
// path loose on traffic we did not generate. It is the front end the
// ROADMAP's "real-pcap and adversarial ingestion" item calls for: read a
// capture (hourly directory or single file, plain or gzip), group the
// packets into the same hour batches simnet produces, and hand each hour
// to an Emit callback — pipeline.Local.ProcessHour in exiotd, the
// pipeline.Shipper in flowsampler — so a replayed capture drives the
// exact EndHour sweep cadence live ingestion does, including empty hours.
//
// Scheduling is a deterministic virtual clock: at Warp == 0 ("as fast as
// possible") the loop never consults its clock and never sleeps, so a
// replay is a pure function of the capture bytes — the property
// TestReplayFeedEquivalence leans on (the replay layer reads the wall
// clock about twice an hour, but nothing emitted depends on it). At
// Warp > 0 the recorded timeline is compressed by that factor against an
// injectable clock (1 = real time, 60 = an hour per minute), with pacing
// checked once per packet batch so the hot loop stays allocation-free.
package replay

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"exiot/internal/packet"
	"exiot/internal/pcapio"
	"exiot/internal/telemetry"
)

// Telemetry handles for the replay stage (see docs/OPERATIONS.md).
var (
	metWarpLag = telemetry.Default().Gauge("exiot_replay_warp_lag_seconds",
		"How far a paced replay is running behind its warped schedule (0 when on time or unpaced).")
	// layerReplay times each emitted hour's read off the capture; items
	// are the hour's packets.
	layerReplay = telemetry.Default().Layer("replay")
)

// paceEvery is how many packets the paced loop admits between clock
// checks: large enough that the clock read disappears from the profile,
// small enough that a 1× replay never runs more than a few hundred
// packets hot.
const paceEvery = 512

// captureWindow is how many hourly captures ReplayDir keeps open, and so
// inflating on their read-ahead goroutines, at once. Inflate is the
// front half's fattest layer and one inflater kept a single core about
// 90 % busy while the consumer used half of the other, so two files in
// flight use both cores of a 2-vCPU host; three measured no faster. It
// bounds memory (two read-ahead rings, 8 MiB) and does not follow
// Workers or GOMAXPROCS.
const captureWindow = 2

// Config parameterizes a Replayer.
type Config struct {
	// Warp is the time-warp factor: 0 replays as fast as possible with
	// no clock reads or sleeps (fully deterministic), 1 replays at
	// recorded speed, N compresses the recorded timeline N-fold.
	Warp float64

	// Emit receives each completed hour's packets in capture order,
	// with the hour start — the same contract as Local.ProcessHour.
	// The slice is pooled and reused for the next hour; Emit must not
	// retain it. Empty hours (gap fills) arrive with an empty slice.
	Emit func(pkts []packet.Packet, hour time.Time) error

	// Now and Sleep are the paced mode's clock, injectable for tests.
	// Nil defaults to time.Now and time.Sleep. Never consulted at
	// Warp == 0.
	Now   func() time.Time
	Sleep func(time.Duration)
}

// Replayer drives captures through Config.Emit hour by hour.
type Replayer struct {
	cfg   Config
	now   func() time.Time
	sleep func(time.Duration)

	// buf accumulates the current hour's packets and is reused across
	// hours — the hot loop allocates only when an hour outgrows every
	// previous one.
	buf     []packet.Packet
	started bool
	curHour time.Time // start of the hour buf is accumulating
	hourEnd time.Time // curHour + 1h: a packet at or after it opens a later hour

	// Virtual-clock anchors for paced mode: recorded instant baseRec
	// corresponds to wall instant baseWall; every later recorded
	// instant maps to baseWall + (rec-baseRec)/Warp.
	baseWall time.Time
	baseRec  time.Time
	unpaced  int // packets admitted since the last clock check

	// The replay layer's wall clock (never Config.Now): the hour's busy
	// time so far, and when reading last resumed.
	busy    time.Duration
	reading time.Time

	packets int64
	hours   int64
}

// New returns a Replayer. Config.Emit is required.
func New(cfg Config) *Replayer {
	if cfg.Emit == nil {
		panic("replay: Config.Emit is required")
	}
	r := &Replayer{
		cfg:   cfg,
		now:   cfg.Now,
		sleep: cfg.Sleep,
		buf:   make([]packet.Packet, 0, 4096),
	}
	if r.now == nil {
		r.now = time.Now
	}
	if r.sleep == nil {
		r.sleep = time.Sleep
	}
	return r
}

// Packets returns the number of packets emitted so far.
func (r *Replayer) Packets() int64 { return r.packets }

// Hours returns the number of hours emitted so far, gap fills included.
func (r *Replayer) Hours() int64 { return r.hours }

// End returns the start of the pseudo-hour after the last emitted hour —
// the instant to pass to Local.Finish or Shipper.Finish once replay
// completes. Zero if nothing was emitted.
func (r *Replayer) End() time.Time {
	if !r.started {
		return time.Time{}
	}
	return r.curHour
}

// Replay replays path — a single capture file (plain .pcap or .pcap.gz)
// or a directory of hourly captures — emitting every hour including the
// trailing partial one. A torn capture still emits everything read up to
// the tear before returning the (io.ErrUnexpectedEOF-wrapped) error, so
// the pipeline keeps whatever the damaged file could prove.
func (r *Replayer) Replay(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if fi.IsDir() {
		return r.ReplayDir(path)
	}
	return r.ReplayFile(path)
}

// ReplayDir replays every hourly capture in dir in chronological order,
// filling gaps between published hours with empty emits so the
// pipeline's hourly flow-end sweeps keep their cadence. Hours already
// emitted are skipped, so calling it again as the directory grows (a
// follower polling for newly published hours) emits each hour once; a
// call that finds nothing new emits nothing.
func (r *Replayer) ReplayDir(dir string) error {
	hours, err := pcapio.ListHours(dir)
	if err != nil {
		return err
	}
	for r.started && len(hours) > 0 && hours[0].Before(r.curHour) {
		hours = hours[1:]
	}
	if len(hours) == 0 {
		return nil
	}
	r.reading = time.Now()
	// open is the window: the captures of hours[i:i+len(open)], oldest
	// first. Whatever is still in it on return is closed unread.
	open := make([]openedHour, 0, captureWindow)
	defer func() {
		for _, o := range open {
			if o.err == nil {
				o.hr.Close()
			}
		}
	}()
	for i, hour := range hours {
		// Fill the window before flushing the previous hour: this file and
		// the next inflate while Emit works through that one, and the next
		// keeps inflating while this one is decoded. A failed open waits
		// in the window until every earlier hour is out.
		for j := i + len(open); j < len(hours) && j < i+captureWindow; j++ {
			hr, err := pcapio.OpenHour(dir, hours[j])
			open = append(open, openedHour{hr, err})
		}
		if err := r.beginHour(hour); err != nil {
			return err
		}
		cur := open[0]
		open = open[:copy(open, open[1:])]
		if cur.err != nil {
			return cur.err
		}
		readErr := r.readAll(cur.hr)
		closeErr := cur.hr.Close()
		if readErr != nil {
			// Keep the partial hour: everything before the tear is good.
			if ferr := r.flushTail(); ferr != nil {
				return ferr
			}
			return fmt.Errorf("replay %s: %w", pcapio.HourFileName(hour), readErr)
		}
		if closeErr != nil {
			return fmt.Errorf("replay %s: %w", pcapio.HourFileName(hour), closeErr)
		}
	}
	return r.flushTail()
}

// openedHour is one capture in ReplayDir's window: its reader, or the
// error opening it gave.
type openedHour struct {
	hr  *pcapio.HourReader
	err error
}

// ReplayFile replays a single capture file, deriving hour boundaries
// from the packet timestamps themselves (a capture spanning several
// hours emits several batches, with empty fills for silent hours).
func (r *Replayer) ReplayFile(path string) error {
	r.reading = time.Now()
	hr, err := pcapio.OpenCapture(path)
	if err != nil {
		return err
	}
	readErr := r.readAll(hr)
	closeErr := hr.Close()
	if readErr != nil {
		if ferr := r.flushTail(); ferr != nil {
			return ferr
		}
		return fmt.Errorf("replay %s: %w", path, readErr)
	}
	if closeErr != nil {
		return fmt.Errorf("replay %s: %w", path, closeErr)
	}
	return r.flushTail()
}

// readAll streams packets from src into the hour buffer, flushing
// completed hours as timestamp boundaries pass. Each packet is decoded
// straight into the buffer's next slot. Only a packet at or after the
// end of the current hour (every packet, before the first) is placed
// by its truncated hour: it moves to the front of the buffer once
// beginHour has emitted the hours before it. A packet stamped before
// the current hour stays in it.
func (r *Replayer) readAll(src *pcapio.HourReader) error {
	for {
		if len(r.buf) == cap(r.buf) {
			// Double, where append would grow a large slice by about
			// a quarter and copy a first big hour a dozen times.
			r.buf = slices.Grow(r.buf, cap(r.buf))
		}
		n := len(r.buf)
		r.buf = r.buf[:n+1]
		p := &r.buf[n]
		if err := src.Next(p); err != nil {
			r.buf = r.buf[:n]
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if !r.started || !p.Timestamp.Before(r.hourEnd) {
			next := *p
			r.buf = r.buf[:n]
			if err := r.beginHour(next.Timestamp.Truncate(time.Hour)); err != nil {
				return err
			}
			r.buf = append(r.buf, next)
			p = &r.buf[len(r.buf)-1]
		}
		if r.unpaced++; r.unpaced >= paceEvery {
			r.unpaced = 0
			r.paceTo(p.Timestamp)
		}
	}
}

// beginHour positions the replayer at hour: the first call anchors the
// timeline; later calls flush the accumulated hour and emit empty fills
// for any skipped hours in between.
func (r *Replayer) beginHour(hour time.Time) error {
	if !r.started {
		r.started = true
		r.curHour, r.hourEnd = hour, hour.Add(time.Hour)
		return nil
	}
	if hour.Before(r.curHour) {
		return fmt.Errorf("replay: capture hours out of order: %s after %s",
			hour.Format("2006-01-02T15"), r.curHour.Format("2006-01-02T15"))
	}
	for r.curHour.Before(hour) {
		if err := r.emitHour(); err != nil {
			return err
		}
	}
	return nil
}

// flushTail emits the trailing partially-accumulated hour.
func (r *Replayer) flushTail() error {
	if !r.started {
		return nil
	}
	return r.emitHour()
}

// emitHour hands the accumulated hour to Emit and advances one hour.
// In paced mode the hour is released no earlier than its recorded end
// maps to on the warped wall clock, so empty hours still take
// 1h/Warp of wall time — the cadence a live hourly poller would see.
// Its replay layer call is charged for reading only, not pacing or Emit.
func (r *Replayer) emitHour() error {
	r.paceTo(r.curHour.Add(time.Hour))
	r.busy += time.Since(r.reading)
	err := r.cfg.Emit(r.buf, r.curHour)
	layerReplay.Add(r.busy, len(r.buf))
	r.packets += int64(len(r.buf))
	r.hours++
	r.buf = r.buf[:0]
	r.curHour, r.hourEnd = r.hourEnd, r.hourEnd.Add(time.Hour)
	r.busy, r.reading = 0, time.Now()
	return err
}

// paceTo blocks until the recorded instant rec is due on the warped
// wall clock. A no-op at Warp == 0. The first call anchors the mapping.
func (r *Replayer) paceTo(rec time.Time) {
	if r.cfg.Warp <= 0 {
		return
	}
	if r.baseWall.IsZero() {
		r.baseWall = r.now()
		r.baseRec = rec
		return
	}
	target := r.baseWall.Add(time.Duration(float64(rec.Sub(r.baseRec)) / r.cfg.Warp))
	if d := target.Sub(r.now()); d > 0 {
		metWarpLag.Set(0)
		r.busy += time.Since(r.reading)
		r.sleep(d)
		r.reading = time.Now()
	} else {
		metWarpLag.Set((-d).Seconds())
	}
}
