package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1.0, 100}}
	for _, c := range cases {
		if got := percentile(lats, c.q); got != c.want {
			t.Errorf("percentile(%.2f) = %.1f, want %.1f", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample percentile = %.1f, want 0", got)
	}
}

func TestRunLoadFixedRequestCount(t *testing.T) {
	var served atomic.Int64 // handlers run concurrently
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-API-Key") != "k" {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		served.Add(1)
		w.Header().Set("ETag", `"abc"`)
		if r.Header.Get("If-None-Match") == `"abc"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write([]byte(`{"count":0,"records":null}` + "\n"))
	}))
	defer ts.Close()

	res, err := runLoad(config{
		baseURL: ts.URL, path: "/api/v1/records", key: "k",
		clients: 4, requests: 40, conditional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 40 {
		t.Fatalf("requests = %d, want 40", res.Requests)
	}
	// The server saw exactly what runLoad sent: the probe plus the 40.
	if n := served.Load(); n != 41 {
		t.Fatalf("server answered %d requests, want 41 (probe + 40)", n)
	}
	// Conditional mode: after each worker's first 200, everything
	// revalidates to 304.
	if res.Status["304"] == 0 || res.Status["200"] == 0 {
		t.Fatalf("status mix = %v, want both 200s and 304s", res.Status)
	}
	if res.Status["200"]+res.Status["304"] != 40 {
		t.Fatalf("status mix = %v does not sum to 40", res.Status)
	}
	if res.ReqPerSec <= 0 || res.P99Ms < res.P50Ms {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestRunLoadRejectsBadProbe(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "unauthorized", http.StatusUnauthorized)
	}))
	defer ts.Close()
	if _, err := runLoad(config{baseURL: ts.URL, path: "/x", key: "bad", clients: 1, requests: 5}); err == nil {
		t.Fatal("probe against a 401 endpoint should fail fast")
	}
}
