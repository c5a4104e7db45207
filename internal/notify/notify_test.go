package notify

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"exiot/internal/allocbudget"
	"exiot/internal/feed"
	"exiot/internal/packet"
)

var t0 = time.Date(2020, 12, 9, 12, 0, 0, 0, time.UTC)

func iotRecord(ip string) feed.Record {
	return feed.Record{
		IP:          ip,
		Label:       feed.LabelIoT,
		Score:       0.93,
		Vendor:      "MikroTik",
		DeviceType:  "Router",
		Country:     "Czech Republic",
		ISP:         "O2 Czech Republic",
		ASN:         5610,
		AbuseEmail:  "abuse@o2.cz",
		FirstSeen:   t0.Add(-time.Hour),
		DetectedAt:  t0,
		TargetPorts: map[uint16]int{23: 180, 2323: 20},
	}
}

func TestSubscriptionAlarm(t *testing.T) {
	mailer := &MemoryMailer{}
	n := New(Config{}, mailer)
	n.Subscribe(packet.MustParsePrefix("198.51.100.0/24"), "soc@example.org")

	rec := iotRecord("198.51.100.77")
	if sent := n.Process(&rec, t0); sent != 1 {
		t.Fatalf("sent = %d, want 1", sent)
	}
	msgs := mailer.Messages()
	if len(msgs) != 1 || msgs[0].To != "soc@example.org" {
		t.Fatalf("messages = %+v", msgs)
	}
	if !strings.Contains(msgs[0].Subject, "198.51.100.77") {
		t.Errorf("subject = %q", msgs[0].Subject)
	}
	if !strings.Contains(msgs[0].Body, "MikroTik") || !strings.Contains(msgs[0].Body, "O2 Czech Republic") {
		t.Errorf("body missing details:\n%s", msgs[0].Body)
	}

	// A record outside the block must not alarm.
	outside := iotRecord("203.0.113.1")
	if sent := n.Process(&outside, t0); sent != 0 {
		t.Errorf("outside-block record sent %d mails", sent)
	}
}

func TestWhoisNotification(t *testing.T) {
	mailer := &MemoryMailer{}
	n := New(Config{NotifyWhois: true}, mailer)
	rec := iotRecord("203.0.113.5")
	if sent := n.Process(&rec, t0); sent != 1 {
		t.Fatalf("sent = %d, want 1", sent)
	}
	if got := mailer.Messages()[0].To; got != "abuse@o2.cz" {
		t.Errorf("whois notification to %q", got)
	}
	// Disabled by default.
	n2 := New(Config{}, &MemoryMailer{})
	if sent := n2.Process(&rec, t0); sent != 0 {
		t.Errorf("whois disabled but sent %d", sent)
	}
}

func TestDeduplicationWindow(t *testing.T) {
	mailer := &MemoryMailer{}
	n := New(Config{NotifyWhois: true, RenotifyAfter: 24 * time.Hour}, mailer)
	rec := iotRecord("203.0.113.9")
	if sent := n.Process(&rec, t0); sent != 1 {
		t.Fatal("first notification suppressed")
	}
	// Same device 2 hours later: suppressed.
	if sent := n.Process(&rec, t0.Add(2*time.Hour)); sent != 0 {
		t.Error("repeat within window not suppressed")
	}
	// After the window: renotified.
	if sent := n.Process(&rec, t0.Add(25*time.Hour)); sent != 1 {
		t.Error("renotification after window suppressed")
	}
}

func TestNonIoTAndBenignSkipped(t *testing.T) {
	mailer := &MemoryMailer{}
	n := New(Config{NotifyWhois: true}, mailer)
	nonIoT := iotRecord("203.0.113.11")
	nonIoT.Label = feed.LabelNonIoT
	if sent := n.Process(&nonIoT, t0); sent != 0 {
		t.Error("non-IoT record notified")
	}
	benign := iotRecord("203.0.113.12")
	benign.Benign = true
	if sent := n.Process(&benign, t0); sent != 0 {
		t.Error("benign scanner notified")
	}
	badIP := iotRecord("not-an-ip")
	if sent := n.Process(&badIP, t0); sent != 0 {
		t.Error("malformed IP notified")
	}
}

func TestMultipleSubscribers(t *testing.T) {
	mailer := &MemoryMailer{}
	n := New(Config{NotifyWhois: true}, mailer)
	n.Subscribe(packet.MustParsePrefix("203.0.113.0/24"), "a@example.org")
	n.Subscribe(packet.MustParsePrefix("203.0.0.0/16"), "b@example.org")
	rec := iotRecord("203.0.113.20")
	// Two subscriptions + whois = 3 mails.
	if sent := n.Process(&rec, t0); sent != 3 {
		t.Errorf("sent = %d, want 3", sent)
	}
	if len(n.subs) != 2 {
		t.Errorf("subscriptions = %d", len(n.subs))
	}
}

// TestDuplicateSubscriptionIsOne registers one prefix and address twice:
// the state holds one subscription, and each matching record sends one
// e-mail to the address.
func TestDuplicateSubscriptionIsOne(t *testing.T) {
	mailer := &MemoryMailer{}
	n := New(Config{}, mailer)
	block := packet.MustParsePrefix("198.51.100.0/24")
	n.Subscribe(block, "soc@example.org")
	n.Subscribe(block, "soc@example.org")
	n.Subscribe(block, "noc@example.org") // another address is another alarm
	if subs := n.ExportState().Subscriptions; len(subs) != 2 {
		t.Fatalf("state holds %d subscriptions, want 2: %+v", len(subs), subs)
	}
	for _, ip := range []string{"198.51.100.7", "198.51.100.8"} {
		rec := iotRecord(ip)
		if sent := n.Process(&rec, t0); sent != 2 {
			t.Errorf("%s: sent %d e-mails, want 2", ip, sent)
		}
	}
	soc := 0
	for _, m := range mailer.Messages() {
		if m.To == "soc@example.org" {
			soc++
		}
	}
	if soc != 2 {
		t.Errorf("soc@example.org got %d e-mails for 2 records, want 2", soc)
	}
}

// TestProcessUnmatchedAllocatesNothing gates the back half's cost per
// IoT record: with WHOIS notifications off, a record no subscription
// matches allocates nothing, at 0 and at 1k subscriptions. It skips
// under -race, where allocation counts mean nothing.
func TestProcessUnmatchedAllocatesNothing(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	rec := iotRecord("198.51.100.77")
	for _, subs := range []int{0, 1000} {
		n := New(Config{}, &MemoryMailer{})
		for i := 0; i < subs; i++ {
			n.Subscribe(packet.MakePrefix(packet.MakeIP(10, byte(i>>8), byte(i), 0), 24), fmt.Sprintf("soc%d@example.org", i))
		}
		got := testing.AllocsPerRun(100, func() {
			if n.Process(&rec, t0) != 0 {
				t.Fatal("a record outside every block was notified")
			}
		})
		t.Logf("%d subscriptions: %.0f allocs per Process", subs, got)
		if got != 0 {
			t.Errorf("%d subscriptions: Process allocates %.0f times a record, want 0", subs, got)
		}
	}
}
