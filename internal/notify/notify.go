// Package notify implements eX-IoT's e-mail notification mechanisms:
// (1) subscription alarms — organizations register an IP block and an
// address, and are alerted the moment a compromised device surfaces
// inside it; (2) WHOIS-driven notifications — the abuse contact from the
// hosting organization's WHOIS record is notified about infected IoT
// devices in its space. Delivery is pluggable: production wires an SMTP
// mailer, tests and simulations use the in-memory mailer.
package notify

import (
	"fmt"
	"maps"
	"sync"
	"time"

	"exiot/internal/feed"
	"exiot/internal/packet"
	"exiot/internal/telemetry"
)

// Telemetry handles for the notification stage (see docs/OPERATIONS.md).
var metEmails = telemetry.Default().CounterVec("exiot_notify_emails_total",
	"Notification e-mails delivered, by trigger (subscription|whois).", "trigger")

// Mailer delivers one e-mail.
type Mailer interface {
	Send(to, subject, body string) error
}

// Message is one captured e-mail (in-memory mailer).
type Message struct {
	To      string
	Subject string
	Body    string
	At      time.Time
}

// MemoryMailer records messages instead of delivering them.
type MemoryMailer struct {
	mu   sync.Mutex
	msgs []Message
}

var _ Mailer = (*MemoryMailer)(nil)

// Send records the message.
func (m *MemoryMailer) Send(to, subject, body string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.msgs = append(m.msgs, Message{To: to, Subject: subject, Body: body, At: time.Now()})
	return nil
}

// Messages returns a copy of everything sent.
func (m *MemoryMailer) Messages() []Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Message, len(m.msgs))
	copy(out, m.msgs)
	return out
}

// Subscription is one registered IP-block alarm.
type Subscription struct {
	Prefix packet.Prefix
	Email  string
}

// Config controls notification behaviour.
type Config struct {
	// NotifyWhois enables WHOIS-driven abuse-contact notifications.
	NotifyWhois bool
	// RenotifyAfter suppresses repeat notifications for the same device
	// within this window (default 24 h).
	RenotifyAfter time.Duration
}

// Notifier routes CTI records to subscribers and abuse contacts.
type Notifier struct {
	cfg    Config
	mailer Mailer

	mu       sync.Mutex
	subs     []Subscription
	lastSent map[string]time.Time // dedup key → last notification
	// nextRetire is the earliest stamp at which Retire sweeps again.
	nextRetire time.Time
}

// New creates a notifier delivering through mailer.
func New(cfg Config, mailer Mailer) *Notifier {
	if cfg.RenotifyAfter <= 0 {
		cfg.RenotifyAfter = 24 * time.Hour
	}
	return &Notifier{cfg: cfg, mailer: mailer, lastSent: make(map[string]time.Time)}
}

// Subscribe registers an IP-block alarm.
func (n *Notifier) Subscribe(prefix packet.Prefix, email string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.subs = append(n.subs, Subscription{Prefix: prefix, Email: email})
}

// Subscriptions returns the registered alarms.
func (n *Notifier) Subscriptions() []Subscription {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Subscription, len(n.subs))
	copy(out, n.subs)
	return out
}

// Process inspects one record and sends due notifications, returning how
// many e-mails went out. now is the (simulated) clock.
func (n *Notifier) Process(rec *feed.Record, now time.Time) int {
	if !rec.IsIoT() || rec.Benign {
		return 0
	}
	ip, err := packet.ParseIP(rec.IP)
	if err != nil {
		return 0
	}

	sent := 0
	n.mu.Lock()
	subs := make([]Subscription, len(n.subs))
	copy(subs, n.subs)
	n.mu.Unlock()

	for _, sub := range subs {
		if !sub.Prefix.Contains(ip) {
			continue
		}
		if n.dueAndMark("sub:"+sub.Email+":"+rec.IP, now) {
			if err := n.mailer.Send(sub.Email, subjectFor(rec), bodyFor(rec)); err == nil {
				metEmails.With("subscription").Inc()
				sent++
			}
		}
	}

	if n.cfg.NotifyWhois && rec.AbuseEmail != "" {
		if n.dueAndMark("whois:"+rec.AbuseEmail+":"+rec.IP, now) {
			if err := n.mailer.Send(rec.AbuseEmail, subjectFor(rec), bodyFor(rec)); err == nil {
				metEmails.With("whois").Inc()
				sent++
			}
		}
	}
	return sent
}

// Retire drops the dedup keys last sent at least RenotifyAfter before
// now. Call it with the advancing clock that stamps Process, so a dropped
// key could never suppress a send again. It sweeps at most once per
// RenotifyAfter (a restored notifier on its first call); other calls
// cost O(1).
func (n *Notifier) Retire(now time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if now.Before(n.nextRetire) {
		return
	}
	n.nextRetire = now.Add(n.cfg.RenotifyAfter)
	maps.DeleteFunc(n.lastSent, func(_ string, last time.Time) bool {
		return now.Sub(last) >= n.cfg.RenotifyAfter
	})
}

// dueAndMark checks the dedup window and marks the key as notified.
func (n *Notifier) dueAndMark(key string, now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if last, ok := n.lastSent[key]; ok && now.Sub(last) < n.cfg.RenotifyAfter {
		return false
	}
	n.lastSent[key] = now
	return true
}

func subjectFor(rec *feed.Record) string {
	return fmt.Sprintf("[eX-IoT] Compromised IoT device detected at %s", rec.IP)
}

func bodyFor(rec *feed.Record) string {
	device := rec.DeviceType
	if device == "" {
		device = "IoT device"
	}
	if rec.Vendor != "" {
		device = rec.Vendor + " " + device
	}
	return fmt.Sprintf(
		"eX-IoT detected Internet-wide scanning from a compromised %s.\n\n"+
			"  IP:            %s\n"+
			"  First seen:    %s\n"+
			"  Detected:      %s\n"+
			"  Country / ISP: %s / %s (AS%d)\n"+
			"  Top ports:     %v\n"+
			"  Score:         %.2f\n\n"+
			"This notification was generated automatically from network-telescope\n"+
			"measurements. Please investigate and remediate the device.\n",
		device, rec.IP,
		rec.FirstSeen.Format(time.RFC3339), rec.DetectedAt.Format(time.RFC3339),
		rec.Country, rec.ISP, rec.ASN, rec.TopPorts(3), rec.Score,
	)
}
