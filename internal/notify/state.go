package notify

import (
	"fmt"
	"sort"
	"time"

	"exiot/internal/packet"
)

// This file is the notifier's durability surface. The dedup map must
// survive restarts: losing it would re-send every active device's
// notification after recovery, so the recovered run's e-mail counters
// (and inboxes) would diverge from the uninterrupted run.

// SubscriptionState is one exported IP-block alarm.
type SubscriptionState struct {
	Prefix string `json:"prefix"` // CIDR text, re-parsed on restore
	Email  string `json:"email"`
}

// State is the notifier's exportable state.
type State struct {
	Subscriptions []SubscriptionState  `json:"subscriptions"`
	LastSent      map[string]time.Time `json:"last_sent"`
}

// ExportState captures the registered alarms and the dedup map.
func (n *Notifier) ExportState() State {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := State{LastSent: make(map[string]time.Time, len(n.lastSent))}
	for _, sub := range n.subs {
		st.Subscriptions = append(st.Subscriptions, SubscriptionState{
			Prefix: sub.Prefix.String(),
			Email:  sub.Email,
		})
	}
	for k, v := range n.lastSent {
		st.LastSent[k] = v
	}
	sort.Slice(st.Subscriptions, func(i, j int) bool {
		a, b := st.Subscriptions[i], st.Subscriptions[j]
		if a.Prefix != b.Prefix {
			return a.Prefix < b.Prefix
		}
		return a.Email < b.Email
	})
	return st
}

// RestoreState parses an exported state and returns the func that
// replaces the notifier's alarms and dedup map with it. Nothing changes
// before that func runs, so a caller restoring several parts can refuse
// the whole state when any part fails to parse.
func (n *Notifier) RestoreState(st State) (apply func(), err error) {
	subs := make([]Subscription, 0, len(st.Subscriptions))
	for _, s := range st.Subscriptions {
		prefix, err := packet.ParsePrefix(s.Prefix)
		if err != nil {
			return nil, fmt.Errorf("notify: restore subscription %q: %w", s.Prefix, err)
		}
		subs = append(subs, Subscription{Prefix: prefix, Email: s.Email})
	}
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.subs = subs
		n.lastSent = make(map[string]time.Time, len(st.LastSent))
		for k, v := range st.LastSent {
			n.lastSent[k] = v
		}
	}, nil
}
