package api

// This file is the snapshot-backed feed distribution read path: when a
// feedserve.Cache is installed, /records and /export serve pre-marshaled
// bytes from an immutable snapshot (one atomic pointer load, zero locks),
// with strong ETags, If-None-Match 304s, sequence-cursor pagination, and
// /events pushing record deltas over SSE. Without a cache the handlers
// in api.go keep the original store-walking behavior.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"exiot/internal/feedserve"
)

// sseHeartbeat is the idle-connection keepalive cadence on /events:
// a comment frame that lets both sides detect a dead peer.
const sseHeartbeat = 15 * time.Second

// snapshotETag derives a strong ETag from the snapshot's content
// fingerprint plus the request's query string, so every distinct view
// (page, filter, delta window) validates independently. The fingerprint
// hashes the export bytes, so additions, updates, and deletions all
// change it.
func snapshotETag(snap *feedserve.Snapshot, rawQuery string) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, rawQuery)
	return fmt.Sprintf("\"%016x-%x\"", snap.Fingerprint(), h.Sum64())
}

// etagMatch implements If-None-Match: a comma-separated list of entity
// tags, or "*". Weak-validator prefixes are ignored — the snapshot path
// only ever issues strong tags.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "W/"))
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// checkConditional writes a body-less 304 when the client's validator
// still matches, counting the outcome either way. Returns true when the
// request was satisfied by the 304.
func checkConditional(w http.ResponseWriter, r *http.Request, endpoint, etag string) bool {
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		metConditional.With(endpoint, "hit").Inc()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	metConditional.With(endpoint, "miss").Inc()
	return false
}

func acceptsGzip(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
}

// filterItems narrows items to those matching the query's content
// filters; with none set it returns items unchanged.
func filterItems(items []*feedserve.Item, q *Query) []*feedserve.Item {
	if !q.filters() {
		return items
	}
	out := make([]*feedserve.Item, 0, len(items))
	for _, it := range items {
		if q.Matches(&it.Rec) {
			out = append(out, it)
		}
	}
	return out
}

// snapshotWindow selects the legacy /records view from a snapshot:
// insertion order, content filters applied, most recent Limit entries —
// the exact record set source.Records(q) would return.
func snapshotWindow(snap *feedserve.Snapshot, q *Query) []*feedserve.Item {
	items := snap.Items()
	if !q.filters() {
		start := 0
		if q.Limit > 0 && len(items) > q.Limit {
			start = len(items) - q.Limit
		}
		sel := make([]*feedserve.Item, 0, len(items)-start)
		for i := start; i < len(items); i++ {
			sel = append(sel, &items[i])
		}
		return sel
	}
	sel := make([]*feedserve.Item, 0, len(items))
	for i := range items {
		if q.Matches(&items[i].Rec) {
			sel = append(sel, &items[i])
		}
	}
	if q.Limit > 0 && len(sel) > q.Limit {
		sel = sel[len(sel)-q.Limit:]
	}
	return sel
}

// recordsBody assembles the /records JSON response from pre-marshaled
// NDJSON lines. In legacy mode (cursor == nil) the bytes are identical
// to writeJSON on {"count": n, "records": <records>} — including
// "records":null when empty — so cached and store-walked responses
// cannot drift.
type cursorInfo struct {
	next    uint64
	hasMore bool
}

func recordsBody(items []*feedserve.Item, cursor *cursorInfo) []byte {
	var b bytes.Buffer
	b.WriteString(`{"count":`)
	b.WriteString(strconv.Itoa(len(items)))
	if cursor != nil {
		fmt.Fprintf(&b, `,"has_more":%t,"next_cursor":%d`, cursor.hasMore, cursor.next)
	}
	b.WriteString(`,"records":`)
	if len(items) == 0 {
		b.WriteString("null")
	} else {
		b.WriteByte('[')
		for i, it := range items {
			if i > 0 {
				b.WriteByte(',')
			}
			b.Write(it.Line[:len(it.Line)-1]) // strip the NDJSON '\n'
		}
		b.WriteByte(']')
	}
	b.WriteString("}\n")
	return b.Bytes()
}

// serveRecordsFromSnapshot handles GET /records off the feed snapshot.
// Returns false if no snapshot is available yet (caller falls back to
// the store walk).
func (s *Server) serveRecordsFromSnapshot(w http.ResponseWriter, r *http.Request, c *feedserve.Cache, q Query) bool {
	snap := c.Current()
	if snap == nil {
		return false
	}
	etag := snapshotETag(snap, r.URL.RawQuery)
	if checkConditional(w, r, "records", etag) {
		return true
	}

	var body []byte
	if after, ok := q.seqMode(); ok {
		// Delta mode: everything past the cursor in change-sequence order.
		all := filterItems(snap.ItemsSince(after), &q)
		info := cursorInfo{next: after}
		sel := all
		if q.Limit > 0 && len(all) > q.Limit {
			sel = all[:q.Limit]
			info.hasMore = true
			info.next = sel[len(sel)-1].Seq
		} else if snap.LastSeq() > after {
			// Caught up with this snapshot: advance past everything in it.
			info.next = snap.LastSeq()
		}
		body = recordsBody(sel, &info)
	} else {
		body = recordsBody(snapshotWindow(snap, &q), nil)
	}

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	return true
}

// serveExportFromSnapshot handles GET /export off the feed snapshot.
// The unfiltered bulk path writes the precomputed export buffer (gzip'd
// when the client accepts it); filtered, limited, and delta requests
// concatenate the matching pre-marshaled lines. Either way the NDJSON
// bytes are identical to the store-walked encoder output. Returns false
// if no snapshot is available yet.
func (s *Server) serveExportFromSnapshot(w http.ResponseWriter, r *http.Request, c *feedserve.Cache, q Query) bool {
	snap := c.Current()
	if snap == nil {
		return false
	}
	etag := snapshotETag(snap, r.URL.RawQuery)
	if checkConditional(w, r, "export", etag) {
		return true
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Disposition", `attachment; filename="exiot-export.ndjson"`)

	after, seq := q.seqMode()
	if !seq && !q.filters() && q.Limit == 0 {
		body := snap.ExportNDJSON()
		if acceptsGzip(r) {
			w.Header().Set("Content-Encoding", "gzip")
			body = snap.ExportGzip()
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return true
	}

	var sel []*feedserve.Item
	if seq {
		sel = filterItems(snap.ItemsSince(after), &q)
		if q.Limit > 0 && len(sel) > q.Limit {
			sel = sel[:q.Limit]
		}
	} else {
		sel = snapshotWindow(snap, &q)
	}
	w.WriteHeader(http.StatusOK)
	for _, it := range sel {
		if _, err := w.Write(it.Line); err != nil {
			return true // client went away mid-stream
		}
	}
	return true
}

// handleEvents streams record deltas as Server-Sent Events. Each frame
// carries the record's change sequence in the id: field; a reconnecting
// consumer sends it back as Last-Event-ID (or ?since=<seq>) and replays
// what it missed from the then-current snapshot before going live.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.feedCache()
	if c == nil {
		writeError(w, http.StatusNotImplemented, "event streaming requires the feed cache")
		return
	}
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid since (want a change sequence)")
			return
		}
		since = n
	}
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid Last-Event-ID")
			return
		}
		since = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// Replay capture and live registration happen under one cache lock,
	// so a delta is either in the replay or on the queue — never lost.
	replay, sub := c.Subscribe(since)
	defer c.Unsubscribe(sub)

	if _, err := io.WriteString(w, "retry: 2000\n\n"); err != nil {
		return
	}
	for _, ev := range replay {
		if _, err := w.Write(ev.Frame); err != nil {
			return
		}
	}
	fl.Flush()

	beat := time.NewTicker(sseHeartbeat)
	defer beat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.C:
			if !ok {
				// Dropped for lagging, or the cache shut down; the client's
				// EventSource reconnects with Last-Event-ID and replays.
				return
			}
			if _, err := w.Write(ev.Frame); err != nil {
				return
			}
			fl.Flush()
		case <-beat.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
