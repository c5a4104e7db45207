package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"strconv"
	"strings"

	"exiot/internal/api"
	"exiot/internal/feedserve"
	"exiot/internal/pipeline"
)

const (
	apiKey = "bench-key"
	// pageLimit is the page size docs/FEED_CONSUMERS.md gives a polling
	// consumer.
	pageLimit = 500
)

// memResponse is the http.ResponseWriter of an in-process handler call.
type memResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.header }
func (m *memResponse) WriteHeader(code int)        { m.code = code }
func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }

// serve calls h in-process, without sockets. etag, when set, is sent as
// If-None-Match; gzip asks for the compressed export.
func serve(h http.Handler, path, etag string, gzip bool) *memResponse {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		panic(err) // the benchmark builds every path itself
	}
	req.Header.Set("X-API-Key", apiKey)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	if gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp := &memResponse{header: make(http.Header), code: http.StatusOK}
	h.ServeHTTP(resp, req)
	return resp
}

// pageHeader reads the pagination fields a /records?cursor= response
// starts with.
func pageHeader(body []byte) (count int, hasMore bool, next uint64, err error) {
	head := body
	if len(head) > 96 {
		head = head[:96]
	}
	_, err = fmt.Sscanf(string(head), `{"count":%d,"has_more":%t,"next_cursor":%d,`, &count, &hasMore, &next)
	return count, hasMore, next, err
}

// feedFront is the read side of a pipeline under test: the snapshot cache
// over the server's historical store, the API handler in front of it, and
// one polling consumer's cursor. It keeps every page the consumer was
// served so that the run can be checked afterwards.
type feedFront struct {
	cache   *feedserve.Cache
	handler http.Handler
	rec     *recorder

	cursor uint64
	pages  [][]byte
	digest hash.Hash
	bad    []string // responses that were not what the API promises

	rebuiltItems int64 // records over all rebuilds
}

func newFeedFront(srv *pipeline.Server, rec *recorder) *feedFront {
	cache := srv.NewFeedCache(feedserve.Config{})
	apiSrv := api.NewServer(srv, nil)
	apiSrv.AddKey(apiKey, "bench")
	apiSrv.SetFeedCache(cache)
	return &feedFront{cache: cache, handler: apiSrv, rec: rec, digest: sha256.New()}
}

func (f *feedFront) close() { f.cache.Close() }

func (f *feedFront) fail(format string, args ...any) {
	if len(f.bad) < 8 {
		f.bad = append(f.bad, fmt.Sprintf(format, args...))
	}
}

// poll makes what the pipeline has written visible and fetches it as the
// consumer would: one snapshot rebuild, then cursor pages until caught up.
func (f *feedFront) poll() {
	id := f.rec.begin("feedserve.rebuild")
	snap := f.cache.Rebuild()
	f.rec.end(id)
	f.rebuiltItems += int64(snap.Len())

	for {
		id := f.rec.begin("api.cursor")
		resp := serve(f.handler, "/api/v1/records?cursor="+strconv.FormatUint(f.cursor, 10)+"&limit="+strconv.Itoa(pageLimit), "", false)
		f.rec.end(id)
		body := resp.body.Bytes()
		_, more, next, err := pageHeader(body)
		if resp.code != http.StatusOK || err != nil || resp.header.Get("ETag") == "" {
			f.fail("cursor page at %d: status %d, etag %q, header error %v", f.cursor, resp.code, resp.header.Get("ETag"), err)
			return
		}
		f.pages = append(f.pages, body)
		f.digest.Write(body)
		f.cursor = next
		if !more {
			return
		}
	}
}

// export fetches the bulk NDJSON export and folds it into the digest.
func (f *feedFront) export() []byte {
	id := f.rec.begin("api.export")
	resp := serve(f.handler, "/api/v1/export", "", false)
	f.rec.end(id)
	if resp.code != http.StatusOK {
		f.fail("export: status %d", resp.code)
	}
	body := resp.body.Bytes()
	f.digest.Write(body)
	return body
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sum is the digest of every page served so far, and the export if it was
// fetched: two runs that served the same bytes have the same sum.
func (f *feedFront) sum() string { return hex.EncodeToString(f.digest.Sum(nil)) }

// mirrorPages replays cursor pages the way a consumer keeps a mirror — a
// record seen again replaces the copy held, a new one goes to the end —
// and returns the NDJSON the mirror then holds. Change sequences are
// handed out in insertion order, so an intact set of pages mirrors to
// exactly the server's bulk export.
func mirrorPages(pages [][]byte) ([]byte, error) {
	type page struct {
		Count   int               `json:"count"`
		Records []json.RawMessage `json:"records"`
	}
	type identity struct {
		IP         string `json:"ip"`
		FirstSeen  string `json:"first_seen"`
		DetectedAt string `json:"detected_at"`
	}
	var order []string
	held := make(map[string]json.RawMessage)
	for i, raw := range pages {
		var p page
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, fmt.Errorf("page %d: %w", i, err)
		}
		if p.Count != len(p.Records) {
			return nil, fmt.Errorf("page %d: count %d but %d records", i, p.Count, len(p.Records))
		}
		for _, r := range p.Records {
			var id identity
			if err := json.Unmarshal(r, &id); err != nil {
				return nil, fmt.Errorf("page %d: %w", i, err)
			}
			key := id.IP + "|" + id.FirstSeen + "|" + id.DetectedAt
			if _, seen := held[key]; !seen {
				order = append(order, key)
			}
			held[key] = r
		}
	}
	var out bytes.Buffer
	for _, key := range order {
		out.Write(held[key])
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}

// checkFeed is the thorough check of one run's output: the pages mirror
// to the export, the feed is not empty, and isScanner holds for every fed
// IP (scan precision 1). It returns what it found wrong.
func checkFeed(pages [][]byte, export []byte, isScanner func(ip string) bool) []string {
	var wrong []string
	mirror, err := mirrorPages(pages)
	switch {
	case err != nil:
		wrong = append(wrong, "cursor pages do not parse: "+err.Error())
	case !bytes.Equal(mirror, export):
		wrong = append(wrong, fmt.Sprintf("cursor pages mirror to %d bytes that differ from the %d-byte export", len(mirror), len(export)))
	}
	lines := strings.Split(strings.TrimSuffix(string(export), "\n"), "\n")
	if len(export) == 0 {
		return append(wrong, "the feed is empty")
	}
	notScanners := 0
	for _, line := range lines {
		var r struct {
			IP string `json:"ip"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil || !isScanner(r.IP) {
			notScanners++
		}
	}
	if notScanners > 0 {
		wrong = append(wrong, fmt.Sprintf("%d of %d fed records are not ground-truth scanners", notScanners, len(lines)))
	}
	return wrong
}
