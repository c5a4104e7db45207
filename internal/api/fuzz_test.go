package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"exiot/internal/feed"
	"exiot/internal/feedserve"
	"exiot/internal/store"
)

// FuzzRecordsQuery sends any raw query string and If-None-Match header to
// /records and /export of an API serving a small fixed snapshot: the
// answer is 200, 304 or 400 — never a 5xx, never a panic — a 200 body
// parses as JSON (records) or NDJSON (export), and replaying the ETag it
// advertised revalidates to a body-less 304.
func FuzzRecordsQuery(f *testing.F) {
	for _, q := range []string{
		"", "limit=2", "label=iot&country=CN", "active=true&asn=7", "since=2020-12-09T00:03:00Z",
		"since=3&limit=1", "cursor=2", "prefix=10.0.0.0/30", "limit=-1", "since=x", "prefix=10.0.0.0/40",
		"cursor=18446744073709551616", "%zz&limit=1", "label=IoT;limit=1",
	} {
		f.Add(q, "")
		f.Add(q, "*")
	}
	f.Add("", `"bogus", W/"x"`)

	coll := store.NewCollection[feed.Record]()
	for i := range 6 {
		label := feed.LabelIoT
		if i%3 == 2 {
			label = feed.LabelNonIoT
		}
		coll.Insert(t0.Add(time.Duration(i)*time.Minute), serveRec(i, label))
	}
	cache := feedserve.New(coll, feedserve.Config{Clock: func() time.Time { return t0 }})
	f.Cleanup(cache.Close)
	s := NewServer(&collSource{coll: coll}, nil)
	s.AddKey("k", "fuzz")
	s.SetFeedCache(cache)
	serve := func(path, rawQuery, ifNoneMatch string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = rawQuery
		req.Header.Set("X-API-Key", "k")
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}

	f.Fuzz(func(t *testing.T, rawQuery, ifNoneMatch string) {
		for _, path := range []string{"/api/v1/records", "/api/v1/export"} {
			rec := serve(path, rawQuery, ifNoneMatch)
			body := rec.Body.Bytes()
			switch rec.Code {
			case http.StatusOK:
				if path == "/api/v1/records" {
					if !json.Valid(body) {
						t.Fatalf("%s?%s: 200 body is not JSON: %q", path, rawQuery, body)
					}
				} else {
					for _, line := range bytes.SplitAfter(body, []byte("\n")) {
						if len(line) > 0 && (line[len(line)-1] != '\n' || !json.Valid(line)) {
							t.Fatalf("%s?%s: 200 body has a bad NDJSON line %q", path, rawQuery, line)
						}
					}
				}
			case http.StatusNotModified, http.StatusBadRequest:
			default:
				t.Fatalf("%s?%s (If-None-Match %q): status %d: %s", path, rawQuery, ifNoneMatch, rec.Code, body)
			}
			if etag := rec.Header().Get("ETag"); etag != "" {
				again := serve(path, rawQuery, etag)
				if again.Code != http.StatusNotModified || again.Body.Len() != 0 {
					t.Fatalf("%s?%s: replaying ETag %s: status %d, %d body bytes", path, rawQuery, etag, again.Code, again.Body.Len())
				}
			}
		}
	})
}
