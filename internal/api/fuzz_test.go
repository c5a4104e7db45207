package api

import (
	"bytes"
	"encoding/json"
	"fmt"
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
// advertised revalidates to a body-less 304. A 200 body is also the
// reference's, byte for byte: the cacheless store-walk server's for a
// window query, and refSeqBody's full walk for a cursor or since=<seq>
// query.
func FuzzRecordsQuery(f *testing.F) {
	// Twelve records over three countries and both labels. Updating
	// three of them moves their sequence numbers past the rest, so
	// sequence order is not insertion order; a fourth update keeps its
	// bytes and its sequence number.
	coll := store.NewCollection[feed.Record]()
	var ids []store.ObjectID
	for i := range 12 {
		label := feed.LabelIoT
		if i%3 == 2 {
			label = feed.LabelNonIoT
		}
		rec := serveRec(i, label)
		rec.CountryCode = []string{"CN", "US", "BR"}[i%3]
		rec.Active = i%4 != 1
		ids = append(ids, coll.Insert(t0.Add(time.Duration(i)*time.Minute), rec))
	}
	cache := feedserve.New(coll, feedserve.Config{Clock: func() time.Time { return t0 }})
	f.Cleanup(cache.Close)
	for _, i := range []int{7, 1, 4} {
		coll.Update(ids[i], func(r *feed.Record) { r.Active = !r.Active })
	}
	coll.Update(ids[0], func(*feed.Record) {})
	snap := cache.Rebuild()
	last := snap.LastSeq()
	// The reference filters the store's records themselves.
	records := map[store.ObjectID]feed.Record{}
	for _, d := range coll.Export() {
		records[d.ID] = d.Value
	}

	for _, q := range []string{
		"", "limit=2", "label=iot&country=CN", "active=true&asn=7", "since=2020-12-09T00:03:00Z",
		"since=3&limit=1", "cursor=2", "prefix=10.0.0.0/30", "limit=-1", "since=x", "prefix=10.0.0.0/40",
		"cursor=18446744073709551616", "%zz&limit=1", "label=IoT;limit=1",
		"limit=0", "country=US&limit=50", "country=ZZ", "country=ZZ&cursor=0",
		fmt.Sprintf("cursor=%d", last), fmt.Sprintf("cursor=%d&country=BR&limit=1", last-1), fmt.Sprintf("cursor=%d&country=US", last-1),
		"cursor=0&active=false&limit=2", "since=5&label=non-IoT",
	} {
		f.Add(q, "")
		f.Add(q, "*")
	}
	f.Add("", `"bogus", W/"x"`)

	newServer := func(c *feedserve.Cache) *Server {
		s := NewServer(&collSource{coll: coll}, nil)
		s.AddKey("k", "fuzz")
		if c != nil {
			s.SetFeedCache(c)
		}
		return s
	}
	cached, walk := newServer(cache), newServer(nil)
	request := func(path, rawQuery string) *http.Request {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = rawQuery
		req.Header.Set("X-API-Key", "k")
		return req
	}
	serve := func(s *Server, path, rawQuery, ifNoneMatch string) *httptest.ResponseRecorder {
		req := request(path, rawQuery)
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}

	f.Fuzz(func(t *testing.T, rawQuery, ifNoneMatch string) {
		for _, path := range []string{"/api/v1/records", "/api/v1/export"} {
			rec := serve(cached, path, rawQuery, ifNoneMatch)
			body := rec.Body.Bytes()
			switch rec.Code {
			case http.StatusOK:
				req := request(path, rawQuery)
				q, err := parseQuery(req)
				if err != nil {
					t.Fatalf("%s?%s: 200 for a query that does not parse: %v", path, rawQuery, err)
				}
				export := path == "/api/v1/export"
				if export && req.URL.Query().Get("limit") == "" {
					q.Limit = 0
				}
				var want []byte
				if after, ok := q.seqMode(); ok {
					want = refSeqBody(snap, records, &q, after, export)
				} else {
					want = serve(walk, path, rawQuery, "").Body.Bytes()
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("%s?%s: body differs from the reference\n got %q\nwant %q", path, rawQuery, body, want)
				}
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
				again := serve(cached, path, rawQuery, etag)
				if again.Code != http.StatusNotModified || again.Body.Len() != 0 {
					t.Fatalf("%s?%s: replaying ETag %s: status %d, %d body bytes", path, rawQuery, etag, again.Code, again.Body.Len())
				}
			}
		}
	})
}

// refSeqBody is the full-walk reference for a cursor or since=<seq>
// query: every item past the cursor whose record, looked up in records
// by ID, q.Matches, then cut to the limit — the /records body (with
// has_more and next_cursor) or the /export NDJSON.
func refSeqBody(snap *feedserve.Snapshot, records map[store.ObjectID]feed.Record, q *Query, after uint64, export bool) []byte {
	var all []*feedserve.Item
	for _, it := range snap.ItemsSince(after) {
		if rec := records[it.ID]; q.Matches(&rec) {
			all = append(all, it)
		}
	}
	sel := all
	info := cursorInfo{next: after}
	if q.Limit > 0 && len(all) > q.Limit {
		sel = all[:q.Limit]
		info.hasMore = true
		info.next = sel[len(sel)-1].Seq
	} else if snap.LastSeq() > after {
		info.next = snap.LastSeq()
	}
	if !export {
		return recordsBody(sel, &info)
	}
	var b bytes.Buffer
	for _, it := range sel {
		b.Write(it.Line)
	}
	return b.Bytes()
}

// FuzzKeyFilter holds the snapshot path's compiled filter to
// Query.Matches: for any record a snapshot holds and any query
// parseQuery accepts, the filter passes the record's snapshot key
// exactly when Matches passes the record. The records' country codes,
// ASNs, labels and IPs are arbitrary strings and numbers, and their
// detection times span the years 0 to 9999, as do a since's.
func FuzzKeyFilter(f *testing.F) {
	f.Add(feed.LabelIoT, "CN", 4134, true, "10.1.2.3", int64(1_607_472_000), "label=IoT&country=CN&asn=4134&active=true")
	f.Add(feed.LabelNonIoT, "USA", 0, false, "010.001.2.3", int64(0), "country=USA&prefix=10.0.0.0/8")
	f.Add("other", "", -7, true, "10.1.2", int64(1_607_472_000), "prefix=10.1.2.0/24&label=non-IoT")
	f.Add(feed.LabelIoT, "C", 1, false, "256.1.1.1", int64(-9_000_000_000), "since=1678-01-01T00:00:00Z")
	f.Add(feed.LabelIoT, "BR", 1, false, "192.0.2.1", int64(9_300_000_000), "since=2261-12-31T23:59:59-12:00&asn=1")
	f.Add(feed.LabelIoT, "BR", 1, true, "192.0.2.1", int64(1_607_472_000), "since=2020-12-09T00:00:00.000000001Z&active=false")
	f.Add(feed.LabelIoT, "BR", 1, true, "192.0.2.1", int64(-14_700_000_000), "since=1678-01-01T00:00:00Z&label=IoT")
	f.Add(feed.LabelIoT, "BR", 1, true, "192.0.2.1", int64(-14_700_000_000), "since=1600-01-01T00:00:00Z")

	// The Unix seconds of 0000-01-01 and 10000-01-01: a record's
	// detection time is JSON, which spans the years between.
	const first, span = -62_167_219_200, 315_569_520_000
	f.Fuzz(func(t *testing.T, label, country string, asn int, active bool, ip string, sec int64, rawQuery string) {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/records", nil)
		req.URL.RawQuery = rawQuery
		q, err := parseQuery(req)
		if err != nil {
			return
		}
		rec := feed.Record{
			IP: ip, Label: label, CountryCode: country, ASN: asn, Active: active,
			DetectedAt: time.Unix(first+((sec-first)%span+span)%span, sec&(1<<30-1)%1e9).UTC(),
		}
		coll := store.NewCollection[feed.Record]()
		coll.Insert(t0, rec)
		cache := feedserve.New(coll, feedserve.Config{Clock: func() time.Time { return t0 }})
		defer cache.Close()
		items := cache.Current().Latest(0, nil)
		if len(items) != 1 {
			t.Fatalf("the snapshot holds %d items", len(items))
		}
		filter := q.keyFilter()
		got := filter.matcher() == nil || filter.match(&items[0].Key)
		if want := q.Matches(&rec); got != want {
			t.Fatalf("?%s: the key filter says %v, Matches %v, for %+v (key %+v)", rawQuery, got, want, rec, items[0].Key)
		}
	})
}
