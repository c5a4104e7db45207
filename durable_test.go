// Cross-package crash-recovery proof for the durable feed state: a
// multi-day run that is hard-stopped partway through — with its WAL
// tail torn or bit-flipped, as a real crash would leave it — must,
// after recovery in a fresh process, finish with a feed byte-identical
// to an uninterrupted run: same latest and historical records, same
// lifetime counters, same NDJSON bulk export. The proof holds at any
// worker count (serial, and parallel generation with the flush fan-out),
// and recovery really is a snapshot plus a WAL tail: hour-end snapshots
// are written with scanners still buffered.
package exiot_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"exiot/internal/api"
	"exiot/internal/durable"
	"exiot/internal/feed"
	"exiot/internal/notify"
	"exiot/internal/pipeline"
	"exiot/internal/simnet"
)

const durableProofHours = 48

func durableProofWorld(seed int64, workers int) *simnet.World {
	cfg := simnet.DefaultConfig(seed)
	cfg.NumInfected = 150
	cfg.NumNonIoT = 30
	cfg.NumResearch = 3
	cfg.NumMisconfig = 20
	cfg.NumBackscat = 6
	cfg.Days = 2
	cfg.MaxPacketsPerHostHour = 600
	cfg.Workers = workers
	return simnet.NewWorld(cfg)
}

// durableProofLocal assembles a pipeline over a fresh same-seed world;
// dir == "" runs without persistence (the uninterrupted baseline).
func durableProofLocal(t *testing.T, seed int64, workers int, dir string) (*pipeline.Local, *simnet.World) {
	t.Helper()
	w := durableProofWorld(seed, workers)
	cfg := pipeline.DefaultLocalConfig()
	cfg.Workers = workers
	if dir != "" {
		cfg.Durable = pipeline.DurableConfig{
			Dir:          dir,
			Sync:         durable.SyncOff, // fsync policy is orthogonal to the equivalence proof
			SegmentBytes: 256 << 10,       // force segment rotation
		}
	}
	l, err := pipeline.NewDurableLocal(cfg, w, w.Registry(), &notify.MemoryMailer{})
	if err != nil {
		t.Fatal(err)
	}
	return l, w
}

func driveProofHours(l *pipeline.Local, w *simnet.World, from, to int) {
	for h := from; h < to; h++ {
		hour := w.Start().Add(time.Duration(h) * time.Hour)
		l.ProcessHour(w.GenerateHour(hour), hour)
	}
}

// feedFingerprint is everything the ISSUE's equivalence bar compares:
// the latest view (the archive's still-active records), the two-week
// archive, lifetime counters, and the bulk NDJSON export exactly as the
// REST API streams it.
type feedFingerprint struct {
	latest     []feed.Record
	historical []feed.Record
	counters   pipeline.Counters
	ndjson     string
}

func fingerprintFeed(t *testing.T, s *pipeline.Server) feedFingerprint {
	t.Helper()
	var fp feedFingerprint
	fp.historical = s.Records(api.Query{})
	for _, r := range fp.historical {
		if r.Active {
			fp.latest = append(fp.latest, r)
		}
	}
	fp.counters = s.Counters()

	apiSrv := api.NewServer(s, s.Notifier())
	apiSrv.AddKey("proof-key", "durable-test")
	ts := httptest.NewServer(apiSrv)
	defer ts.Close()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/export", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "proof-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status = %d", resp.StatusCode)
	}
	fp.ndjson = string(body)
	return fp
}

// damageWALTail mutilates the newest WAL segment the way a crash mid-
// write would: "torn" truncates inside the last record, "bitflip"
// corrupts a byte of its payload. Either way recovery must truncate
// back to the last intact record and resume from there.
func damageWALTail(t *testing.T, dir, mode string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments to damage: %v", err)
	}
	last := segs[len(segs)-1]
	offsets, validLen, err := durable.RecordOffsets(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) == 0 {
		t.Fatalf("last segment %s holds no records", last)
	}
	lastStart := offsets[len(offsets)-1]
	mid := lastStart + (validLen-lastStart)/2
	if mid <= lastStart {
		mid = lastStart + 1
	}
	switch mode {
	case "torn":
		if err := os.Truncate(last, mid); err != nil {
			t.Fatal(err)
		}
	case "bitflip":
		f, err := os.OpenFile(last, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, mid); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		if _, err := f.WriteAt(b, mid); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown damage mode %q", mode)
	}
}

func TestKillRecoverEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day pipeline run")
	}
	const seed = 99

	base, bw := durableProofLocal(t, seed, 1, "")
	driveProofHours(base, bw, 0, durableProofHours)
	base.Finish(bw.Start().Add(durableProofHours * time.Hour))
	want := fingerprintFeed(t, base.Server())
	if len(want.historical) == 0 {
		t.Fatal("baseline run produced no feed records")
	}

	for _, tc := range []struct {
		name      string
		workers   int
		crashHour int
		damage    string
	}{
		{"serial-torn-tail", 1, 29, "torn"},
		{"parallel-bitflip", 4, 17, "bitflip"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()

			// Phase 1: run partway, then hard-stop — no Finish, no
			// Close, no final snapshot. Only what already hit the WAL
			// survives, and even its tail gets mangled.
			crashed, cw := durableProofLocal(t, seed, tc.workers, dir)
			driveProofHours(crashed, cw, 0, tc.crashHour)
			if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")); len(snaps) == 0 {
				t.Fatal("hard-stopped run left no snapshot: hour-end snapshots are not being written")
			}
			damageWALTail(t, dir, tc.damage)

			// The damaged directory still passes a coarse sanity scan:
			// Verify flags the damage, Inspect does not panic.
			if problems, err := durable.Verify(dir); err != nil {
				t.Fatal(err)
			} else if len(problems) == 0 {
				t.Error("Verify did not flag the damaged WAL tail")
			}

			// Phase 2: a fresh process recovers and re-drives the same
			// regenerated hours; recovered deliveries are skipped, the
			// torn-away tail is healed by regeneration.
			rec, rw := durableProofLocal(t, seed, tc.workers, dir)
			d := rec.Durable()
			if d == nil {
				t.Fatal("recovery run has no durable layer")
			}
			info := d.Recovery()
			if info.Events() == 0 {
				t.Fatal("recovery found no prior state")
			}
			if info.SnapshotSeq == 0 || uint64(info.ReplayedEvents) >= info.Events() {
				t.Fatalf("recovery did not restore a snapshot and replay only the tail: %+v", info)
			}
			t.Logf("recovered from snapshot through seq %d + %d WAL events", info.SnapshotSeq, info.ReplayedEvents)
			driveProofHours(rec, rw, 0, durableProofHours)
			rec.Finish(rw.Start().Add(durableProofHours * time.Hour))
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if err := d.Err(); err != nil {
				t.Fatalf("durable layer reported a sticky error: %v", err)
			}
			got := fingerprintFeed(t, rec.Server())

			if len(got.latest) != len(want.latest) {
				t.Fatalf("latest DB size differs: recovered %d, baseline %d",
					len(got.latest), len(want.latest))
			}
			for i := range want.latest {
				if !reflect.DeepEqual(got.latest[i], want.latest[i]) {
					t.Fatalf("latest record %d differs:\n recovered: %+v\n baseline:  %+v",
						i, got.latest[i], want.latest[i])
				}
			}
			if len(got.historical) != len(want.historical) {
				t.Fatalf("historical DB size differs: recovered %d, baseline %d",
					len(got.historical), len(want.historical))
			}
			for i := range want.historical {
				if !reflect.DeepEqual(got.historical[i], want.historical[i]) {
					t.Fatalf("historical record %d differs:\n recovered: %+v\n baseline:  %+v",
						i, got.historical[i], want.historical[i])
				}
			}
			if got.counters != want.counters {
				t.Errorf("server counters differ:\n recovered: %+v\n baseline:  %+v",
					got.counters, want.counters)
			}
			if got.ndjson != want.ndjson {
				gl := strings.Split(got.ndjson, "\n")
				wl := strings.Split(want.ndjson, "\n")
				for i := range wl {
					if i >= len(gl) || gl[i] != wl[i] {
						t.Fatalf("NDJSON export differs at line %d:\n recovered: %s\n baseline:  %s",
							i, line(gl, i), wl[i])
					}
				}
				t.Fatalf("NDJSON export differs: recovered %d lines, baseline %d", len(gl), len(wl))
			}

			// The clean, closed directory verifies end to end.
			if problems, err := durable.Verify(dir); err != nil {
				t.Fatal(err)
			} else if len(problems) > 0 {
				t.Errorf("closed state dir has problems: %v", problems)
			}
		})
	}
}

func line(ls []string, i int) string {
	if i < len(ls) {
		return ls[i]
	}
	return "<missing>"
}
