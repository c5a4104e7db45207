package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"exiot/internal/allocbudget"
	"exiot/internal/feed"
	"exiot/internal/feedserve"
	"exiot/internal/store"
)

// budgetRecord is one record of the 10k-record serving fixture. It is
// fuller than serveRec because the recorded counts were measured on
// records of this shape.
func budgetRecord(i int) feed.Record {
	return feed.Record{
		IP:          fmt.Sprintf("100.%d.%d.%d", i/65536%256, i/256%256, i%256),
		Label:       feed.LabelIoT,
		Score:       0.93,
		CountryCode: "CN",
		ASN:         4134,
		Active:      i%2 == 0,
		FirstSeen:   t0.Add(time.Duration(i) * time.Second),
		DetectedAt:  t0.Add(time.Duration(i) * time.Second),
		LastSeen:    t0.Add(time.Duration(i+600) * time.Second),
		Vendor:      "MikroTik",
		TargetPorts: map[uint16]int{23: 150 + i%100, 2323: 20},
		ScanRatePPS: 4.2,
	}
}

// TestRecordsAllocBudget bounds the allocations of one
// GET /api/v1/records through the full handler stack over 10k records:
// ?limit=100 served from the snapshot, revalidated to a 304, and walked
// from the store, plus a filtered window and a cursor page served from
// the snapshot. Each ceiling is ⌊1.10 × the allocs/op recorded for that
// path⌋; the recorded count follows each row.
func TestRecordsAllocBudget(t *testing.T) {
	coll := store.NewCollection[feed.Record]()
	for i := 0; i < 10_000; i++ {
		coll.Insert(t0.Add(time.Duration(i)*time.Second), budgetRecord(i))
	}
	walk := NewServer(&collSource{coll: coll}, nil)
	walk.AddKey("k", "test")
	snap := NewServer(&collSource{coll: coll}, nil)
	snap.AddKey("k", "test")
	cache := feedserve.New(coll, feedserve.Config{})
	t.Cleanup(cache.Close)
	snap.SetFeedCache(cache)

	// Each request is built once and served repeatedly, as a polling
	// consumer's would be: the budget counts the server's allocations.
	request := func(query, etag string) *http.Request {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/records?"+query, nil)
		req.Header.Set("X-API-Key", "k")
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		return req
	}
	w := httptest.NewRecorder()
	snap.ServeHTTP(w, request("limit=100", ""))
	etag := w.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on the snapshot response")
	}

	for _, c := range []struct {
		name    string
		h       http.Handler
		req     *http.Request
		code    int
		runs    int
		ceiling float64
	}{
		{"snapshot", snap, request("limit=100", ""), http.StatusOK, 100, 40},                      // 37
		{"snapshot_304", snap, request("limit=100", etag), http.StatusNotModified, 100, 19},       // 18
		{"store_walk", walk, request("limit=100", ""), http.StatusOK, 3, 1168},                    // 1,062
		{"snapshot_filtered", snap, request("limit=100&active=true", ""), http.StatusOK, 100, 42}, // 39
		{"snapshot_cursor", snap, request("cursor=0&limit=500", ""), http.StatusOK, 100, 46},      // 42
	} {
		t.Run(c.name, func(t *testing.T) {
			allocbudget.Check(t, c.runs, [2]float64{c.ceiling, c.ceiling}, func() {
				w := httptest.NewRecorder()
				c.h.ServeHTTP(w, c.req)
				if w.Code != c.code {
					t.Fatalf("status %d, want %d", w.Code, c.code)
				}
			})
		})
	}
}

// TestWindowBytesFlat holds the bytes one filtered window and one cursor
// page allocate over 100k records to within 10 % of what they allocate
// over 10k: each walk stops at the end of its page, so neither may cost
// in proportion to the snapshot.
func TestWindowBytesFlat(t *testing.T) {
	queries := []string{"limit=100&active=true", "cursor=0&limit=500"}
	bytesPerRequest := func(records int) []float64 {
		coll := store.NewCollection[feed.Record]()
		for i := 0; i < records; i++ {
			coll.Insert(t0.Add(time.Duration(i)*time.Second), budgetRecord(i))
		}
		cache := feedserve.New(coll, feedserve.Config{})
		defer cache.Close()
		s := NewServer(&collSource{coll: coll}, nil)
		s.AddKey("k", "test")
		s.SetFeedCache(cache)
		out := make([]float64, len(queries))
		for i, q := range queries {
			req := httptest.NewRequest(http.MethodGet, "/api/v1/records?"+q, nil)
			req.Header.Set("X-API-Key", "k")
			serve := func() {
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Fatalf("%s: status %d", q, w.Code)
				}
			}
			serve()
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				serve()
			}
			runtime.ReadMemStats(&after)
			out[i] = float64(after.TotalAlloc-before.TotalAlloc) / runs
		}
		return out
	}
	small, large := bytesPerRequest(10_000), bytesPerRequest(100_000)
	for i, q := range queries {
		t.Logf("%s: %.0f B/request at 10k records, %.0f at 100k", q, small[i], large[i])
		if r := large[i] / small[i]; r > 1.10 || r < 1/1.10 {
			t.Errorf("%s: %.0f B/request at 100k records is %.2f× the %.0f at 10k", q, large[i], r, small[i])
		}
	}
}
