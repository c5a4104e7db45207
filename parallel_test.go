// Cross-package equivalence proof for the parallel ingest path: a
// multi-day deployment run with Workers: 8 (parallel hour generation +
// the probe and annotate fan-out at each scan-batch flush in the feed
// back half; detection is serial at any setting) must produce the same
// feed, detector stats, server counters, and evaluation tables as the
// serial path (Workers: 1).
package exiot_test

import (
	"reflect"
	"testing"

	"exiot/internal/experiments"
)

func parallelProofScale(seed int64, workers int) experiments.Scale {
	scale := experiments.QuickScale(seed)
	scale.Infected = 150
	scale.NonIoT = 30
	scale.Research = 3
	scale.Misconfig = 20
	scale.Backscat = 6
	scale.Days = 2
	scale.MaxPacketsPerHostHour = 600
	scale.Workers = workers
	return scale
}

func TestParallelIngestEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day pipeline run")
	}
	serial, err := experiments.NewEnv(parallelProofScale(77, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.NewEnv(parallelProofScale(77, 8))
	if err != nil {
		t.Fatal(err)
	}

	sRecs, pRecs := serial.Records(), parallel.Records()
	if len(sRecs) == 0 {
		t.Fatal("serial run produced no feed records")
	}
	if len(pRecs) != len(sRecs) {
		t.Fatalf("feed size differs: workers=8 got %d records, workers=1 got %d",
			len(pRecs), len(sRecs))
	}
	for i := range sRecs {
		if !reflect.DeepEqual(pRecs[i], sRecs[i]) {
			t.Fatalf("feed record %d differs:\n workers=8: %+v\n workers=1: %+v",
				i, pRecs[i], sRecs[i])
		}
	}

	sStats := serial.Sys.Pipeline().Sampler().DetectorStats()
	pStats := parallel.Sys.Pipeline().Sampler().DetectorStats()
	if sStats != pStats {
		t.Errorf("detector stats differ:\n workers=8: %+v\n workers=1: %+v", pStats, sStats)
	}

	// The back half (probe and annotate fan-out, batch inference) must
	// leave the server's lifetime counters untouched too: same records,
	// banner labels, retrains, and notifications.
	if sc, pc := serial.Sys.Feed().Counters(), parallel.Sys.Feed().Counters(); sc != pc {
		t.Errorf("server counters differ:\n workers=8: %+v\n workers=1: %+v", pc, sc)
	}

	if s, p := experiments.TableIII(serial), experiments.TableIII(parallel); !reflect.DeepEqual(s, p) {
		t.Errorf("Table III differs:\n workers=8: %+v\n workers=1: %+v", p, s)
	}
	if s, p := experiments.TableIV(serial), experiments.TableIV(parallel); !reflect.DeepEqual(s, p) {
		t.Errorf("Table IV differs:\n workers=8: %+v\n workers=1: %+v", p, s)
	}
	if s, p := experiments.TableV(serial), experiments.TableV(parallel); !reflect.DeepEqual(s, p) {
		t.Errorf("Table V differs:\n workers=8: %+v\n workers=1: %+v", p, s)
	}
}
