package api

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"exiot/internal/feed"
	"exiot/internal/feedserve"
	"exiot/internal/store"
)

// collSource backs the API with a real document-store collection using
// the pipeline's query semantics (filter in insertion order, most
// recent Limit entries win) — the reference the snapshot path must
// reproduce byte for byte.
type collSource struct {
	coll *store.Collection[feed.Record]
}

func (c *collSource) Records(q Query) []feed.Record {
	out := c.coll.Find(func(r feed.Record) bool { return q.Matches(&r) })
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

func (c *collSource) RecordByIP(ip string) (feed.Record, bool) {
	matches := c.coll.Find(func(r feed.Record) bool { return r.IP == ip })
	if len(matches) == 0 {
		return feed.Record{}, false
	}
	return matches[len(matches)-1], true
}

func (c *collSource) Snapshot() Snapshot { return Snapshot{GeneratedAt: t0} }

func serveRec(i int, label string) feed.Record {
	return feed.Record{
		IP:          fmt.Sprintf("10.0.%d.%d", i/256, i%256),
		Label:       label,
		CountryCode: "CN",
		Active:      true,
		DetectedAt:  t0.Add(time.Duration(i) * time.Minute),
		TargetPorts: map[uint16]int{23: 100 + i},
	}
}

// cachedServer builds two API servers over one collection: legacy
// (store-walking) and cached (snapshot-backed), so responses can be
// compared directly. Background rebuilds are off; tests drive
// cache.Rebuild explicitly.
func cachedServer(t *testing.T, n int) (legacy, cached *httptest.Server, coll *store.Collection[feed.Record], cache *feedserve.Cache) {
	t.Helper()
	coll = store.NewCollection[feed.Record]()
	for i := 0; i < n; i++ {
		label := feed.LabelIoT
		if i%4 == 3 {
			label = feed.LabelNonIoT
		}
		coll.Insert(t0.Add(time.Duration(i)*time.Minute), serveRec(i, label))
	}
	src := &collSource{coll: coll}

	mk := func(withCache bool) *httptest.Server {
		s := NewServer(src, nil)
		s.AddKey("k", "test")
		if withCache {
			cache = feedserve.New(coll, feedserve.Config{Clock: func() time.Time { return t0 }})
			t.Cleanup(cache.Close)
			s.SetFeedCache(cache)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		return ts
	}
	legacy = mk(false)
	cached = mk(true)
	return legacy, cached, coll, cache
}

func TestSnapshotRecordsMatchLegacy(t *testing.T) {
	legacy, cached, _, _ := cachedServer(t, 10)
	paths := []string{
		"/api/v1/records",
		"/api/v1/records?limit=3",
		"/api/v1/records?label=IoT",
		"/api/v1/records?label=non-IoT&limit=2",
		"/api/v1/records?country=SE", // no matches → "records":null
		"/api/v1/records?since=" + t0.Add(5*time.Minute).Format(time.RFC3339),
	}
	for _, path := range paths {
		_, want := get(t, legacy, path, "k")
		resp, got := get(t, cached, path, "k")
		if !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot body differs from store walk:\n%s\nvs\n%s", path, got, want)
		}
		if resp.Header.Get("ETag") == "" {
			t.Errorf("%s: snapshot response has no ETag", path)
		}
	}
}

func TestConditionalRecords304(t *testing.T) {
	_, cached, coll, cache := cachedServer(t, 5)
	resp, body := get(t, cached, "/api/v1/records", "k")
	etag := resp.Header.Get("ETag")
	if etag == "" || len(body) == 0 {
		t.Fatalf("initial response: etag=%q body=%d bytes", etag, len(body))
	}

	match := func(header string, want int) []byte {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, cached.URL+"/api/v1/records", nil)
		req.Header.Set("X-API-Key", "k")
		req.Header.Set("If-None-Match", header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("If-None-Match %q: status = %d, want %d", header, resp.StatusCode, want)
		}
		return b
	}

	// Matching validator → 304 with no body; comma lists and * match too.
	for _, h := range []string{etag, `"bogus", ` + etag, "*", "W/" + etag} {
		if b := match(h, http.StatusNotModified); len(b) != 0 {
			t.Errorf("304 for %q carried a body: %q", h, b)
		}
	}
	// Stale validator → full response.
	if b := match(`"deadbeef-0"`, http.StatusOK); len(b) == 0 {
		t.Error("stale validator got an empty 200")
	}

	// A write changes the feed → old validator no longer matches.
	coll.Insert(t0.Add(time.Hour), serveRec(99, feed.LabelIoT))
	cache.Rebuild()
	if b := match(etag, http.StatusOK); len(b) == 0 {
		t.Error("post-write conditional should return the new body")
	}
	resp2, _ := get(t, cached, "/api/v1/records", "k")
	if resp2.Header.Get("ETag") == etag {
		t.Error("ETag unchanged after a write")
	}

	// Different query strings validate independently.
	respA, _ := get(t, cached, "/api/v1/records?limit=2", "k")
	if respA.Header.Get("ETag") == resp2.Header.Get("ETag") {
		t.Error("distinct queries share an ETag")
	}
}

// cursorPage is the /records delta-mode response shape.
type cursorPage struct {
	Count      int           `json:"count"`
	HasMore    bool          `json:"has_more"`
	NextCursor uint64        `json:"next_cursor"`
	Records    []feed.Record `json:"records"`
}

func getPage(t *testing.T, ts *httptest.Server, path string) cursorPage {
	t.Helper()
	resp, body := get(t, ts, path, "k")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status = %d: %s", path, resp.StatusCode, body)
	}
	var page cursorPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return page
}

func TestCursorPagination(t *testing.T) {
	_, cached, _, _ := cachedServer(t, 10)
	var seen []string
	cursor := uint64(0)
	pages := 0
	for {
		page := getPage(t, cached, fmt.Sprintf("/api/v1/records?cursor=%d&limit=3", cursor))
		for _, r := range page.Records {
			seen = append(seen, r.IP)
		}
		pages++
		if !page.HasMore {
			if page.NextCursor < cursor {
				t.Fatalf("final next_cursor went backwards: %d < %d", page.NextCursor, cursor)
			}
			cursor = page.NextCursor
			break
		}
		if page.NextCursor <= cursor {
			t.Fatalf("next_cursor did not advance: %d -> %d", cursor, page.NextCursor)
		}
		cursor = page.NextCursor
	}
	if pages != 4 || len(seen) != 10 {
		t.Fatalf("pagination: %d pages, %d records, want 4/10", pages, len(seen))
	}
	uniq := map[string]bool{}
	for _, ip := range seen {
		if uniq[ip] {
			t.Fatalf("record %s delivered twice", ip)
		}
		uniq[ip] = true
	}
	// Caught-up consumer polls with the final cursor and gets nothing.
	page := getPage(t, cached, fmt.Sprintf("/api/v1/records?cursor=%d&limit=3", cursor))
	if page.Count != 0 || page.HasMore {
		t.Fatalf("caught-up page = %+v", page)
	}
	// ?since=<seq> is the same filter spelled differently.
	page = getPage(t, cached, "/api/v1/records?since=7&limit=0")
	if page.Count != 3 {
		t.Fatalf("since=7 returned %d records, want 3", page.Count)
	}
}

func TestCursorStableAcrossSnapshotSwaps(t *testing.T) {
	_, cached, coll, cache := cachedServer(t, 9)
	// Page 1.
	page := getPage(t, cached, "/api/v1/records?cursor=0&limit=4")
	seen := map[string]int{}
	for _, r := range page.Records {
		seen[r.IP]++
	}
	cursor := page.NextCursor

	// Mid-pagination writes: new inserts land past the tail seqs, so the
	// in-flight cursor neither skips nor re-delivers existing records.
	for i := 0; i < 3; i++ {
		coll.Insert(t0.Add(time.Duration(100+i)*time.Minute), serveRec(100+i, feed.LabelIoT))
		cache.Rebuild()
	}

	for page.HasMore || cursor < cache.Current().LastSeq() {
		page = getPage(t, cached, fmt.Sprintf("/api/v1/records?cursor=%d&limit=4", cursor))
		for _, r := range page.Records {
			seen[r.IP]++
		}
		if page.NextCursor <= cursor && page.Count > 0 {
			t.Fatalf("cursor stuck at %d", cursor)
		}
		cursor = page.NextCursor
		if page.Count == 0 {
			break
		}
	}
	if len(seen) != 12 {
		t.Fatalf("saw %d distinct records, want 12 (9 original + 3 mid-pagination)", len(seen))
	}
	for ip, n := range seen {
		if n != 1 {
			t.Fatalf("record %s delivered %d times", ip, n)
		}
	}
}

func TestCursorWithoutCacheIs501(t *testing.T) {
	legacy, _, _, _ := cachedServer(t, 3)
	for _, path := range []string{"/api/v1/records?cursor=5", "/api/v1/export?since=5"} {
		resp, _ := get(t, legacy, path, "k")
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s without cache: status = %d, want 501", path, resp.StatusCode)
		}
	}
	// SSE needs the cache too.
	resp, _ := get(t, legacy, "/api/v1/events", "k")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("/events without cache: status = %d, want 501", resp.StatusCode)
	}
}

func TestSnapshotExportPaths(t *testing.T) {
	legacy, cached, _, cache := cachedServer(t, 8)

	// Bulk export: snapshot bytes identical to the store walk.
	_, want := get(t, legacy, "/api/v1/export", "k")
	resp, got := get(t, cached, "/api/v1/export", "k")
	if !bytes.Equal(got, want) {
		t.Fatalf("bulk export differs:\n%s\nvs\n%s", got, want)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || strings.Contains(etag, "-gzip") {
		t.Errorf("identity export ETag %q", etag)
	}
	if ce := resp.Header.Get("Content-Encoding"); ce != "" || resp.Uncompressed {
		t.Errorf("identity export: Content-Encoding %q, decompressed by the client %v", ce, resp.Uncompressed)
	}

	// Filtered and limited exports match the legacy path too.
	for _, path := range []string{"/api/v1/export?label=IoT", "/api/v1/export?limit=3"} {
		_, want := get(t, legacy, path, "k")
		_, got := get(t, cached, path, "k")
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from store walk", path)
		}
	}

	// gzip negotiation serves the snapshot's compressed export.
	req, _ := http.NewRequest(http.MethodGet, cached.URL+"/api/v1/export", nil)
	req.Header.Set("X-API-Key", "k")
	req.Header.Set("Accept-Encoding", "gzip")
	gresp, err := identityClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if ce := gresp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q", ce)
	}
	zr, err := gzip.NewReader(gresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("gzip export does not decompress to the store-walked bytes")
	}

	// Delta export: only lines past the cursor.
	last := cache.Current().LastSeq()
	_, body := get(t, cached, fmt.Sprintf("/api/v1/export?since=%d", last-2), "k")
	if lines := strings.Count(string(body), "\n"); lines != 2 {
		t.Fatalf("delta export = %d lines, want 2", lines)
	}

	// Conditional bulk export: 304 with no body.
	req, _ = http.NewRequest(http.MethodGet, cached.URL+"/api/v1/export", nil)
	req.Header.Set("X-API-Key", "k")
	req.Header.Set("Accept-Encoding", "identity")
	req.Header.Set("If-None-Match", etag)
	cresp, err := identityClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	b, _ := io.ReadAll(cresp.Body)
	if cresp.StatusCode != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("conditional export: status=%d body=%d bytes", cresp.StatusCode, len(b))
	}
}

// TestRecordsBodyExactSize holds recordsBody to one allocation of
// exactly the body's size, for legacy and cursor pages, empty or not.
func TestRecordsBodyExactSize(t *testing.T) {
	items := []*feedserve.Item{{Line: []byte(`{"ip":"a"}` + "\n")}, {Line: []byte(`{"ip":"bc"}` + "\n")}}
	for _, tc := range []struct {
		items  []*feedserve.Item
		cursor *cursorInfo
		want   string
	}{
		{nil, nil, `{"count":0,"records":null}`},
		{items, nil, `{"count":2,"records":[{"ip":"a"},{"ip":"bc"}]}`},
		{nil, &cursorInfo{next: 7}, `{"count":0,"has_more":false,"next_cursor":7,"records":null}`},
		{items[:1], &cursorInfo{next: 18446744073709551615, hasMore: true},
			`{"count":1,"has_more":true,"next_cursor":18446744073709551615,"records":[{"ip":"a"}]}`},
	} {
		body := recordsBody(tc.items, tc.cursor)
		if string(body) != tc.want+"\n" {
			t.Errorf("body %q, want %q", body, tc.want+"\n")
		}
		if cap(body) != len(body) {
			t.Errorf("%q: capacity %d for %d bytes", body, cap(body), len(body))
		}
		if n := testing.AllocsPerRun(10, func() { recordsBody(tc.items, tc.cursor) }); n != 1 {
			t.Errorf("%q: %.0f allocations", body, n)
		}
	}
}

// TestExportContentNegotiation checks which representation of the
// unfiltered export each Accept-Encoding selects (RFC 9110 §12.5.3):
// gzip only when gzip, or else "*", has a q-value above 0. The gzip
// representation has its own strong ETag, each revalidates only with
// its own, and both, 200 or 304, carry Vary: Accept-Encoding.
func TestExportContentNegotiation(t *testing.T) {
	_, cached, _, _ := cachedServer(t, 8)
	serve := func(path, acceptEncoding, ifNoneMatch string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("X-API-Key", "k")
		if acceptEncoding != "" {
			req.Header.Set("Accept-Encoding", acceptEncoding)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		w := httptest.NewRecorder()
		cached.Config.Handler.ServeHTTP(w, req)
		return w
	}
	plainTag := serve("/api/v1/export", "", "").Header().Get("ETag")
	gzipTag := serve("/api/v1/export", "gzip", "").Header().Get("ETag")
	if want := strings.TrimSuffix(plainTag, `"`) + `-gzip"`; gzipTag != want {
		t.Fatalf("gzip ETag %s, want %s (identity ETag %s)", gzipTag, want, plainTag)
	}

	for _, tc := range []struct {
		accept string
		gzip   bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true},
		{"x-gzip", true},
		{"x-gzip;q=0, *", false},
		{"deflate, gzip;q=1.0", true},
		{"gzip;q=0.5", true},
		{"gzip;q=0", false},
		{"gzip; q=0.000", false},
		{"*", true},
		{"*;q=0", false},
		{"gzip;q=0, *", false},
		{"identity, *;q=0.1", true},
		{"br, deflate", false},
		{"gzipped", false},
		{"gzip;q=much", false},
	} {
		t.Run(tc.accept, func(t *testing.T) {
			own, other := plainTag, gzipTag
			if tc.gzip {
				own, other = gzipTag, plainTag
			}
			resp := serve("/api/v1/export", tc.accept, "")
			if got := resp.Header().Get("Content-Encoding") == "gzip"; got != tc.gzip {
				t.Fatalf("gzip = %v, want %v", got, tc.gzip)
			}
			if tag := resp.Header().Get("ETag"); tag != own {
				t.Fatalf("ETag %s, want %s", tag, own)
			}
			if v := resp.Header().Get("Vary"); v != "Accept-Encoding" {
				t.Fatalf("200 Vary = %q", v)
			}
			cond := serve("/api/v1/export", tc.accept, own)
			if cond.Code != http.StatusNotModified || cond.Header().Get("ETag") != own || cond.Header().Get("Vary") != "Accept-Encoding" {
				t.Fatalf("revalidation with its own ETag: status %d, ETag %s, Vary %q",
					cond.Code, cond.Header().Get("ETag"), cond.Header().Get("Vary"))
			}
			if cond := serve("/api/v1/export", tc.accept, other); cond.Code != http.StatusOK {
				t.Fatalf("revalidation with the other representation's ETag: status %d", cond.Code)
			}
		})
	}

	// A filtered export has one representation: never gzip, no Vary.
	resp := serve("/api/v1/export?label=IoT", "gzip", "")
	if resp.Header().Get("Content-Encoding") != "" || resp.Header().Get("Vary") != "" {
		t.Fatalf("filtered export: Content-Encoding %q, Vary %q", resp.Header().Get("Content-Encoding"), resp.Header().Get("Vary"))
	}
}

// sseLines streams response lines into a channel so tests can apply
// timeouts to reads from a connection that never closes on its own.
func sseLines(t *testing.T, body io.Reader) <-chan string {
	t.Helper()
	ch := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(body)
		for sc.Scan() {
			ch <- sc.Text()
		}
		close(ch)
	}()
	return ch
}

func nextEventID(t *testing.T, lines <-chan string) (string, bool) {
	t.Helper()
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				return "", false
			}
			if strings.HasPrefix(line, "id: ") {
				return strings.TrimPrefix(line, "id: "), true
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for an SSE event")
		}
	}
}

func TestSSEDeliversLiveWrites(t *testing.T) {
	_, cached, coll, cache := cachedServer(t, 2)

	req, _ := http.NewRequest(http.MethodGet, cached.URL+"/api/v1/events", nil)
	req.Header.Set("X-API-Key", "k")
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	lines := sseLines(t, resp.Body)

	// Replay: Last-Event-ID 1 means the consumer already has seq 1, so
	// the stream opens with seq 2.
	if id, ok := nextEventID(t, lines); !ok || id != "2" {
		t.Fatalf("replay id = %q, want 2", id)
	}

	// A record written after subscribing is pushed live.
	coll.Insert(t0.Add(time.Hour), serveRec(50, feed.LabelIoT))
	cache.Rebuild()
	if id, ok := nextEventID(t, lines); !ok || id != "3" {
		t.Fatalf("live event id = %q, want 3", id)
	}

	// The frame's data line is the record's JSON.
	var dataLine string
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before data line")
			}
			if strings.HasPrefix(line, "data: ") {
				dataLine = strings.TrimPrefix(line, "data: ")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for data line")
		}
		if dataLine != "" {
			break
		}
	}
	var rec feed.Record
	if err := json.Unmarshal([]byte(dataLine), &rec); err != nil {
		t.Fatalf("data line %q: %v", dataLine, err)
	}

	// Closing the cache ends the stream (client would then reconnect).
	cache.Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-lines:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("stream did not end after cache close")
		}
	}
}

func TestSSEBadResumeCursors(t *testing.T) {
	_, cached, _, _ := cachedServer(t, 1)
	for _, hdr := range []bool{true, false} {
		req, _ := http.NewRequest(http.MethodGet, cached.URL+"/api/v1/events?since=banana", nil)
		if hdr {
			req, _ = http.NewRequest(http.MethodGet, cached.URL+"/api/v1/events", nil)
			req.Header.Set("Last-Event-ID", "banana")
		}
		req.Header.Set("X-API-Key", "k")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad cursor (header=%v): status = %d, want 400", hdr, resp.StatusCode)
		}
	}
}
