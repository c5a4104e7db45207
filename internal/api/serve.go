package api

// This file is the snapshot-backed feed distribution read path: when a
// feedserve.Cache is installed, /records and /export serve pre-marshaled
// bytes from an immutable snapshot (one atomic pointer load, zero locks),
// with strong ETags, If-None-Match 304s, sequence-cursor pagination, and
// /events streaming record deltas over SSE from the reader's cursor.
// Without a cache the handlers in api.go keep the original store-walking
// behavior.

import (
	"bufio"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"strings"

	"exiot/internal/feedserve"
)

// exportChunk caps the writes of the identity bulk export.
const exportChunk = 1 << 20

// snapshotETag derives a strong ETag from a snapshot's content
// fingerprint fp plus the FNV-1a 64 hash of the request's query string,
// so every distinct view (page, filter, delta window) validates
// independently: "<fp as 16 hex digits>-<query hash in hex>". The
// fingerprint covers every block of the export, so additions, updates,
// and deletions all change it. It is built in a stack buffer: the
// revalidations it answers are most of a polling consumer's requests.
func snapshotETag(fp uint64, rawQuery string) string {
	h := uint64(14695981039346656037)
	for i := 0; i < len(rawQuery); i++ {
		h ^= uint64(rawQuery[i])
		h *= 1099511628211
	}
	var buf [40]byte
	b := append(buf[:0], '"')
	b = append(b, "000000000000000"[:15-(bits.Len64(fp|1)-1)/4]...)
	b = strconv.AppendUint(b, fp, 16)
	b = append(b, '-')
	b = strconv.AppendUint(b, h, 16)
	return string(append(b, '"'))
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

// acceptsGzip reports whether the request's Accept-Encoding gives gzip
// a q-value above 0 (RFC 9110 §12.5.3): its own, or else that of "*".
// "gzip;q=0" refuses gzip even beside "*". "x-gzip" counts as "gzip"
// (RFC 9110 §8.4.1.3).
func acceptsGzip(r *http.Request) bool {
	gzipQ, anyQ := -1.0, -1.0
	for _, elem := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(elem, ";")
		q := 1.0
		for _, param := range strings.Split(params, ";") {
			name, value, _ := strings.Cut(param, "=")
			if strings.EqualFold(strings.TrimSpace(name), "q") {
				v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
				if err != nil {
					v = 0 // an unreadable weight is no consent
				}
				q = v
			}
		}
		switch coding = strings.TrimSpace(coding); {
		case strings.EqualFold(coding, "gzip"), strings.EqualFold(coding, "x-gzip"):
			gzipQ = q
		case coding == "*":
			anyQ = q
		}
	}
	if gzipQ >= 0 {
		return gzipQ > 0
	}
	return anyQ > 0
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
	var headBuf [96]byte
	head := append(headBuf[:0], `{"count":`...)
	head = strconv.AppendInt(head, int64(len(items)), 10)
	if cursor != nil {
		head = append(head, `,"has_more":`...)
		head = strconv.AppendBool(head, cursor.hasMore)
		head = append(head, `,"next_cursor":`...)
		head = strconv.AppendUint(head, cursor.next, 10)
	}
	head = append(head, `,"records":`...)
	if len(items) == 0 {
		return append(append(make([]byte, 0, len(head)+6), head...), "null}\n"...)
	}

	// Each line's '\n' becomes the ',' or ']' after it, so the records
	// take exactly the lines' bytes, plus '[' before and "}\n" after.
	size := len(head) + 1 + 2
	for _, it := range items {
		size += len(it.Line)
	}
	b := append(make([]byte, 0, size), head...)
	b = append(b, '[')
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, it.Line[:len(it.Line)-1]...) // strip the NDJSON '\n'
	}
	return append(b, "]}\n"...)
}

// serveRecordsFromSnapshot handles GET /records off the feed snapshot.
// Returns false if no snapshot is available yet (caller falls back to
// the store walk).
func (s *Server) serveRecordsFromSnapshot(w http.ResponseWriter, r *http.Request, c *feedserve.Cache, q Query) bool {
	snap := c.Current()
	if snap == nil {
		return false
	}
	etag := snapshotETag(snap.Fingerprint(), r.URL.RawQuery)
	if checkConditional(w, r, "records", etag) {
		return true
	}

	var body []byte
	filter := q.keyFilter()
	if after, ok := q.seqMode(); ok {
		// Delta mode: the page past the cursor in change-sequence order,
		// and one match more to tell whether another page follows.
		n := 0
		if q.Limit > 0 {
			n = q.Limit + 1
		}
		sel := snap.ItemsAfter(after, n, filter.matcher())
		info := cursorInfo{next: after}
		if q.Limit > 0 && len(sel) > q.Limit {
			sel = sel[:q.Limit]
			info.hasMore = true
			info.next = sel[len(sel)-1].Seq
		} else if snap.LastSeq() > after {
			// Caught up with this snapshot: advance past everything in it.
			info.next = snap.LastSeq()
		}
		body = recordsBody(sel, &info)
	} else {
		body = recordsBody(snap.Latest(q.Limit, filter.matcher()), nil)
	}

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	return true
}

// serveExportFromSnapshot handles GET /export off the feed snapshot.
// The unfiltered bulk path writes the snapshot's export from its
// blocks, or its gzip form when the client accepts gzip: a second
// representation, with its own ETag, and Vary: Accept-Encoding on both.
// Filtered, limited, and delta requests concatenate the matching
// pre-marshaled lines.
// Either way the NDJSON bytes are identical to the store-walked encoder
// output. Returns false if no snapshot is available yet.
func (s *Server) serveExportFromSnapshot(w http.ResponseWriter, r *http.Request, c *feedserve.Cache, q Query) bool {
	snap := c.Current()
	if snap == nil {
		return false
	}
	after, seq := q.seqMode()
	bulk := !seq && !q.filters() && q.Limit == 0
	gz := bulk && acceptsGzip(r)
	etag := snapshotETag(snap.Fingerprint(), r.URL.RawQuery)
	if gz {
		etag = strings.TrimSuffix(etag, `"`) + `-gzip"`
	}
	if bulk {
		w.Header().Set("Vary", "Accept-Encoding")
	}
	if checkConditional(w, r, "export", etag) {
		return true
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Disposition", `attachment; filename="exiot-export.ndjson"`)

	if bulk {
		if gz {
			body := snap.ExportGzip()
			w.Header().Set("Content-Encoding", "gzip")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body)
			return true
		}
		w.Header().Set("Content-Length", strconv.Itoa(snap.Size()))
		w.WriteHeader(http.StatusOK)
		// The blocks (tens of KB each) go out in writes of up to
		// exportChunk: fewer syscalls on a socket, and a writer that
		// keeps the whole body (a recorder, a proxy) gets an export of
		// up to exportChunk in one write instead of growing a buffer to
		// as much as twice its size.
		bw := bufio.NewWriterSize(w, min(snap.Size(), exportChunk))
		if _, err := snap.WriteTo(bw); err == nil {
			_ = bw.Flush() // an error here is the client gone away
		}
		return true
	}

	var sel []*feedserve.Item
	filter := q.keyFilter()
	if seq {
		sel = snap.ItemsAfter(after, q.Limit, filter.matcher())
	} else {
		sel = snap.Latest(q.Limit, filter.matcher())
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
// consumer sends it back as Last-Event-ID (or ?since=<seq>), and the
// stream goes on from that cursor in the current snapshot.
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

	if _, err := io.WriteString(w, "retry: 2000\n\n"); err != nil {
		return
	}
	c.Follow(r.Context(), w, fl.Flush, since, nil, nil)
}
