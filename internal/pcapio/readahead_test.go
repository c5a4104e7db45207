package pcapio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"exiot/internal/packet"
)

// TestReaderNextZeroAlloc pins the capture decode loop at zero
// allocations per packet: the record is decoded where it lies in the
// read window, so nothing is copied out and nothing escapes. Handing a
// local header array to io.ReadFull (one 16-byte allocation a packet)
// or growing a scratch buffer fails here.
func TestReaderNextZeroAlloc(t *testing.T) {
	const runs = 2000
	raw, _ := buildStream(t, runs+10)
	rd, err := newReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var p packet.Packet
	allocs := testing.AllocsPerRun(runs, func() {
		if err := rd.Next(&p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Next allocated %.2f allocs/packet, want 0", allocs)
	}
}

// TestReaderNextRefusals walks the committed fuzz seeds through the
// decoder and checks each stops where it was built to: which record is
// refused, and why.
func TestReaderNextRefusals(t *testing.T) {
	for _, seed := range fuzzSeeds() {
		rd, err := newReader(bytes.NewReader(seed.data))
		if err != nil {
			t.Fatalf("%s: open: %v", seed.name, err)
		}
		var p packet.Packet
		for err == nil {
			err = rd.Next(&p)
		}
		if rd.index != seed.index {
			t.Errorf("%s: stopped at record %d, want %d", seed.name, rd.index, seed.index)
		}
		if seed.err == "" {
			if err != io.EOF {
				t.Errorf("%s: want bare io.EOF, got %v", seed.name, err)
			}
		} else if !strings.Contains(err.Error(), seed.err) {
			t.Errorf("%s: error %q does not contain %q", seed.name, err, seed.err)
		}
	}
}

// TestReadAheadErrorAfterData pins the ordering the decoder's torn-record
// reporting rests on: whatever the source returns — a clean EOF or a
// failure, alone or with its last bytes — reaches the consumer after
// every byte that preceded it, and again on every later Read.
func TestReadAheadErrorAfterData(t *testing.T) {
	data := make([]byte, 3*readAheadBlock+5)
	rand.New(rand.NewSource(3)).Read(data)
	boom := errors.New("source failed")
	for _, n := range []int{0, 1, readAheadBlock - 1, readAheadBlock, readAheadBlock + 1, len(data)} {
		for name, src := range map[string]io.Reader{
			"failure":       io.MultiReader(bytes.NewReader(data[:n]), iotest.ErrReader(boom)),
			"eof with data": iotest.DataErrReader(bytes.NewReader(data[:n])),
		} {
			ra := startReadAhead(src)
			got, err := io.ReadAll(ra)
			if !bytes.Equal(got, data[:n]) {
				t.Errorf("%s after %d bytes: read %d bytes, or not the same ones", name, n, len(got))
			}
			// io.ReadAll reports EOF as nil; ask the reader itself.
			if _, again := ra.Read(make([]byte, 1)); name == "failure" && (err != boom || again != boom) {
				t.Errorf("%s after %d bytes: got %v then %v, want the source's error both times", name, n, err, again)
			} else if name != "failure" && (err != nil || again != io.EOF) {
				t.Errorf("%s after %d bytes: got %v then %v, want EOF", name, n, err, again)
			}
			ra.stop()
		}
	}
}

// TestReadAheadCloseMidFile closes a reader whose read-ahead is still
// at work — most of a multi-MiB hour not yet inflated, the ring full —
// and checks Close waited for the goroutine, and that what it gave back
// to the pools is fit for the next reader: the next open of the same
// hour returns every packet. Run under -race it also proves Close does
// not recycle anything the goroutine still touches.
func TestReadAheadCloseMidFile(t *testing.T) {
	dir := t.TempDir()
	hour := time.Date(2021, 6, 2, 0, 0, 0, 0, time.UTC)
	r := rand.New(rand.NewSource(77))
	// ~5 MiB of capture stream: more than the whole ring.
	want := make([]packet.Packet, 90_000)
	hw, err := CreateHour(dir, hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = randomPacket(r, hour.Add(time.Duration(i)*time.Millisecond))
		if err := hw.WritePacket(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	hr, err := OpenHour(dir, hour)
	if err != nil {
		t.Fatal(err)
	}
	var got packet.Packet
	for i := 0; i < 10; i++ {
		if err := hr.Next(&got); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("packet %d mismatch", i)
		}
	}
	if err := hr.Close(); err != nil {
		t.Fatal(err)
	}
	// Close returned after the goroutine's last statement; the runtime
	// may need a moment more to retire it.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before open", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}

	hr, err = OpenHour(dir, hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if err := hr.Next(&got); err != nil {
			t.Fatalf("reopened: packet %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("reopened: packet %d mismatch", i)
		}
	}
	if err := hr.Next(&got); !errors.Is(err, io.EOF) {
		t.Fatalf("reopened: want EOF after %d packets, got %v", len(want), err)
	}
	if err := hr.Close(); err != nil {
		t.Fatal(err)
	}
}
