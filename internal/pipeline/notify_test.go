package pipeline

import (
	"testing"
	"time"

	"exiot/internal/api"
	"exiot/internal/notify"
)

// TestNotifierRetiresDedupKeys runs a WHOIS-notifying pipeline for more
// than three simulated days. After every hour the notifier's dedup map
// holds no key older than two renotify windows (a sweep runs at most
// once per window), and the e-mails sent equal those of a notifier that
// never forgets a key, fed the same records at the same stamps.
func TestNotifierRetiresDedupKeys(t *testing.T) {
	const hours = 80
	// A 6 h window sweeps a dozen times and still suppresses: the
	// world's devices reappear as new records 4 to 39 hours apart.
	const window = 6 * time.Hour
	w, lcfg := testWorld(106, hours)
	lcfg.Server.Notify.RenotifyAfter = window
	mailer := &notify.MemoryMailer{}
	l := NewLocal(lcfg, w, w.Registry(), mailer)
	delay := lcfg.CollectionDelay + lcfg.ProcessingDelay

	start := w.Start()
	for h := 0; h < hours; h++ {
		hour := start.Add(time.Duration(h) * time.Hour)
		l.ProcessHour(w.GenerateHour(hour), hour)
		clock := hour.Add(time.Hour + delay)
		for key, last := range l.Server().Notifier().ExportState().LastSent {
			if age := clock.Sub(last); age >= 2*window {
				t.Fatalf("hour %d: dedup key %s is %v old, past two renotify windows", h, key, age)
			}
		}
	}
	l.Finish(start.Add(hours * time.Hour))

	unpruned := &notify.MemoryMailer{}
	ref := notify.New(lcfg.Server.Notify, unpruned)
	notifiable := 0
	for _, rec := range l.Server().Records(api.Query{}) {
		if rec.IsIoT() && !rec.Benign && rec.AbuseEmail != "" {
			notifiable++
		}
		ref.Process(&rec, rec.AppearedAt)
	}
	got, want := mailer.Messages(), unpruned.Messages()
	if len(got) != len(want) {
		t.Fatalf("sent %d e-mails, the unpruned notifier %d", len(got), len(want))
	}
	sent := map[string]bool{}
	for i := range got {
		if got[i].To != want[i].To || got[i].Subject != want[i].Subject || got[i].Body != want[i].Body {
			t.Fatalf("e-mail %d differs from the unpruned notifier's:\n%+v\n%+v", i, got[i], want[i])
		}
		sent[got[i].To+" "+got[i].Subject] = true
	}
	if kept := len(l.Server().Notifier().ExportState().LastSent); len(sent) == 0 || kept >= len(sent) {
		t.Fatalf("%d devices notified, %d dedup keys kept: nothing was retired", len(sent), kept)
	}
	if len(got) >= notifiable {
		t.Fatalf("%d e-mails for %d notifiable records: the window never suppressed one", len(got), notifiable)
	}
}
