package pipeline

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"exiot/internal/trw"
)

// TestTrafficRetiresWithHistoricalWindow runs a server around the clock
// for 16 simulated days: it keeps only the traffic hours of its two-week
// historical window, in Traffic() and in the state a snapshot writes and
// restores.
func TestTrafficRetiresWithHistoricalWindow(t *testing.T) {
	const days = 16
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	delay := DefaultLocalConfig().CollectionDelay + DefaultLocalConfig().ProcessingDelay
	srv := NewServer(DefaultServerConfig(), nil, nil, nil)
	var now time.Time
	for h := 0; h < days*24; h++ {
		hour := start.Add(time.Duration(h) * time.Hour)
		now = hour.Add(time.Hour + delay)
		for _, sec := range []time.Duration{0, 30 * time.Minute} {
			rep := &trw.SecondReport{Second: hour.Add(sec), Total: 10, TCP: 10,
				PortPackets: map[uint16]int{23: 7, uint16(1000 + h%20): 3}}
			srv.HandleEvent(SamplerEvent{Kind: SamplerReport, Report: rep}, now)
		}
	}

	// The window is every hour that ends after the lapse cutoff.
	cutoff := now.Add(-historicalWindow)
	var want []time.Time
	for h := 0; h < days*24; h++ {
		if hour := start.Add(time.Duration(h) * time.Hour); hour.Add(time.Hour).After(cutoff) {
			want = append(want, hour)
		}
	}
	if len(want) == 0 || len(want) >= days*24 {
		t.Fatalf("a %d-hour window out of %d hours: the run does not cross the lapse", len(want), days*24)
	}
	hoursOf := func(th []TrafficHour) []time.Time {
		out := make([]time.Time, len(th))
		for i, h := range th {
			if h.Total != 20 || h.Seconds != 2 {
				t.Errorf("hour %s holds %d packets over %d seconds, want 20 over 2", h.Hour, h.Total, h.Seconds)
			}
			out[i] = h.Hour
		}
		return out
	}
	live := srv.Traffic()
	if got := hoursOf(live); !reflect.DeepEqual(got, want) {
		t.Fatalf("Traffic() holds %d hours from %s, want the %d from %s", len(got), got[0], len(want), want[0])
	}

	payload, err := srv.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	var st serverState
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	if got := hoursOf(st.Traffic); !reflect.DeepEqual(got, want) {
		t.Errorf("the snapshot holds %d traffic hours, want the window's %d", len(got), len(want))
	}
	restored := NewServer(DefaultServerConfig(), nil, nil, nil)
	if err := restored.RestoreState(payload); err != nil {
		t.Fatal(err)
	}
	if got := restored.Traffic(); !reflect.DeepEqual(got, live) {
		t.Errorf("a restored server holds %d traffic hours, the original %d", len(got), len(live))
	}
}
