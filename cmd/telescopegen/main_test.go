package main

import (
	"errors"
	"io"
	"path/filepath"
	"testing"

	"exiot/internal/packet"
	"exiot/internal/pcapio"
)

func TestRunWritesReadableHours(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 7, 1, 2, 40, 8, 2, 5, 2, 500); err != nil {
		t.Fatal(err)
	}
	hours, err := pcapio.ListHours(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hours) != 2 {
		t.Fatalf("hours = %d, want 2", len(hours))
	}
	// Every written hour must parse back completely.
	total := 0
	for _, hour := range hours {
		hr, err := pcapio.OpenHour(dir, hour)
		if err != nil {
			t.Fatal(err)
		}
		var p packet.Packet
		for {
			err := hr.Next(&p)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("hour %v: %v", hour, err)
			}
			total++
		}
		hr.Close()
	}
	if total == 0 {
		t.Fatal("no packets written")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	for _, dir := range []string{dir1, dir2} {
		if err := run(dir, 11, 1, 1, 30, 5, 1, 3, 1, 400); err != nil {
			t.Fatal(err)
		}
	}
	hours, err := pcapio.ListHours(dir1)
	if err != nil || len(hours) == 0 {
		t.Fatal(err)
	}
	name := pcapio.HourFileName(hours[0])
	b1 := readAll(t, filepath.Join(dir1, name))
	b2 := readAll(t, filepath.Join(dir2, name))
	if len(b1) == 0 || len(b1) != len(b2) {
		t.Fatalf("capture sizes differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("captures differ byte-for-byte despite same seed")
		}
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	hr, err := pcapio.OpenCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Close()
	var out []byte
	var p packet.Packet
	for {
		err := hr.Next(&p)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = p.Marshal(out)
	}
	return out
}

func TestRunBadOutputDir(t *testing.T) {
	if err := run("/proc/definitely/not/writable", 1, 1, 1, 5, 1, 1, 1, 1, 100); err == nil {
		t.Error("unwritable output dir accepted")
	}
}

// TestRunSpanIsTheWorlds asks for the first 2 hours of a world configured
// with 0 days: the world spans one day, so both hours are written.
func TestRunSpanIsTheWorlds(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 7, 0, 2, 10, 2, 1, 1, 1, 200); err != nil {
		t.Fatal(err)
	}
	hours, err := pcapio.ListHours(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hours) != 2 {
		t.Fatalf("hours = %d, want 2", len(hours))
	}
}
