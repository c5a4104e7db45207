package pcapio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"
	"time"

	"exiot/internal/packet"
)

func randomPacket(r *rand.Rand, ts time.Time) packet.Packet {
	p := packet.Packet{
		Timestamp: ts,
		TTL:       uint8(1 + r.Intn(255)),
		ID:        uint16(r.Intn(65536)),
		Proto:     packet.TCP,
		SrcIP:     packet.IP(r.Uint32()),
		DstIP:     packet.IP(r.Uint32()),
		SrcPort:   uint16(r.Intn(65536)),
		DstPort:   23,
		Seq:       r.Uint32(),
		Flags:     packet.FlagSYN,
		Window:    uint16(r.Intn(65536)),
	}
	p.Normalize()
	return p
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	base := time.Date(2020, 12, 9, 7, 0, 0, 0, time.UTC)
	var want []packet.Packet
	for i := 0; i < 500; i++ {
		p := randomPacket(r, base.Add(time.Duration(i)*time.Millisecond*7))
		want = append(want, p)
		if err := w.WritePacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 500 {
		t.Errorf("Count() = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got packet.Packet
	for i := range want {
		if err := rd.Next(&got); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !got.Timestamp.Equal(want[i].Timestamp) {
			t.Fatalf("packet %d: timestamp %v want %v", i, got.Timestamp, want[i].Timestamp)
		}
		if got.SrcIP != want[i].SrcIP || got.Seq != want[i].Seq || got.Window != want[i].Window {
			t.Fatalf("packet %d: fields lost", i)
		}
	}
	if err := rd.Next(&got); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestNotPcap(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); !errors.Is(err, ErrNotPcap) {
		t.Errorf("want ErrNotPcap, got %v", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("want error for empty stream")
	}
}

func TestHourFileNameRoundTrip(t *testing.T) {
	hour := time.Date(2020, 12, 9, 7, 0, 0, 0, time.UTC)
	name := HourFileName(hour)
	if name != "telescope-20201209-07.pcap.gz" {
		t.Errorf("HourFileName = %q", name)
	}
	back, err := ParseHourFileName(name)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(hour) {
		t.Errorf("ParseHourFileName = %v, want %v", back, hour)
	}
	if _, err := ParseHourFileName("random.txt"); err == nil {
		t.Error("want error for non-capture name")
	}
	if _, err := ParseHourFileName("telescope-notadate.pcap.gz"); err == nil {
		t.Error("want error for bad date")
	}
}

func TestHourlyStore(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(9))
	hours := []time.Time{
		time.Date(2020, 12, 9, 7, 0, 0, 0, time.UTC),
		time.Date(2020, 12, 9, 8, 0, 0, 0, time.UTC),
		time.Date(2020, 12, 9, 9, 0, 0, 0, time.UTC),
	}
	perHour := 200
	for _, h := range hours {
		hw, err := CreateHour(dir, h)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perHour; i++ {
			p := randomPacket(r, h.Add(time.Duration(i)*time.Second*10))
			if err := hw.WritePacket(&p); err != nil {
				t.Fatal(err)
			}
		}
		if err := hw.Close(); err != nil {
			t.Fatal(err)
		}
	}

	listed, err := ListHours(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(hours) {
		t.Fatalf("ListHours = %d entries, want %d", len(listed), len(hours))
	}
	for i := range hours {
		if !listed[i].Equal(hours[i]) {
			t.Errorf("hour %d = %v, want %v", i, listed[i], hours[i])
		}
	}

	hr, err := OpenHour(dir, hours[1])
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Close()
	n := 0
	var p packet.Packet
	for {
		err := hr.Next(&p)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !p.Timestamp.Truncate(time.Hour).Equal(hours[1]) {
			t.Fatalf("packet timestamp %v outside hour %v", p.Timestamp, hours[1])
		}
		n++
	}
	if n != perHour {
		t.Errorf("read %d packets, want %d", n, perHour)
	}
}

func TestInProgressHourInvisible(t *testing.T) {
	dir := t.TempDir()
	hour := time.Date(2021, 3, 14, 0, 0, 0, 0, time.UTC)
	hw, err := CreateHour(dir, hour)
	if err != nil {
		t.Fatal(err)
	}
	// Before Close, ListHours must not see the file.
	listed, err := ListHours(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 0 {
		t.Errorf("in-progress hour visible: %v", listed)
	}
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}
	listed, err = ListHours(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 {
		t.Errorf("published hour not visible")
	}
}

func TestListHoursMissingDir(t *testing.T) {
	if _, err := ListHours("/nonexistent/dir/for/test"); err == nil {
		t.Error("want error for missing dir")
	}
}

func TestOpenFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenCapture(dir + "/missing.pcap.gz"); err == nil {
		t.Error("want error for missing file")
	}
	// Non-gzip content.
	path := dir + "/telescope-20210101-00.pcap.gz"
	if err := os.WriteFile(path, []byte("plain text"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCapture(path); err == nil {
		t.Error("want error for non-gzip file")
	}
	// Gzip magic, then nothing a gzip header could be: refused at open,
	// by a decompressor that may never have been started.
	if err := os.WriteFile(path, []byte("\x1f\x8bnot a gzip header"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCapture(path); err == nil {
		t.Error("want error for bad gzip header")
	}
}

// TestPooledHourRoundTrip exercises the pooled gzip/bufio buffers: many
// sequential open/write/close cycles through the same pool objects must
// reproduce every packet exactly — a stale buffer or leaked coder state
// would corrupt a later hour.
func TestPooledHourRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(31))
	base := time.Date(2020, 12, 9, 0, 0, 0, 0, time.UTC)
	for round := 0; round < 5; round++ {
		hour := base.Add(time.Duration(round) * time.Hour)
		want := make([]packet.Packet, 50+round*37)
		hw, err := CreateHour(dir, hour)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i] = randomPacket(r, hour.Add(time.Duration(i)*time.Second))
			if err := hw.WritePacket(&want[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := hw.Close(); err != nil {
			t.Fatal(err)
		}

		hr, err := OpenHour(dir, hour)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			var got packet.Packet
			if err := hr.Next(&got); err != nil {
				t.Fatalf("round %d packet %d: %v", round, i, err)
			}
			if got != want[i] {
				t.Fatalf("round %d packet %d mismatch:\n got  %+v\n want %+v", round, i, got, want[i])
			}
		}
		var extra packet.Packet
		if err := hr.Next(&extra); !errors.Is(err, io.EOF) {
			t.Fatalf("round %d: want EOF after %d packets, got %v", round, len(want), err)
		}
		if err := hr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPooledHourConcurrent proves the pools are goroutine-safe: parallel
// writers and readers in separate directories must never observe each
// other's buffers.
func TestPooledHourConcurrent(t *testing.T) {
	base := time.Date(2020, 12, 10, 0, 0, 0, 0, time.UTC)
	const goroutines = 4
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			dir := t.TempDir()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for round := 0; round < 3; round++ {
				hour := base.Add(time.Duration(round) * time.Hour)
				want := make([]packet.Packet, 80)
				hw, err := CreateHour(dir, hour)
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					want[i] = randomPacket(r, hour.Add(time.Duration(i)*time.Second))
					if err := hw.WritePacket(&want[i]); err != nil {
						errs <- err
						return
					}
				}
				if err := hw.Close(); err != nil {
					errs <- err
					return
				}
				hr, err := OpenHour(dir, hour)
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					var got packet.Packet
					if err := hr.Next(&got); err != nil {
						errs <- fmt.Errorf("worker %d round %d packet %d: %w", g, round, i, err)
						return
					}
					if got != want[i] {
						errs <- fmt.Errorf("worker %d round %d packet %d mismatch", g, round, i)
						return
					}
				}
				if err := hr.Close(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
