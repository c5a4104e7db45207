package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"exiot/internal/api"
	"exiot/internal/feed"
	"exiot/internal/feedserve"
	"exiot/internal/store"
)

// apiStub records requests and serves canned JSON.
type apiStub struct {
	lastPath  string
	lastQuery string
	lastKey   string
	lastBody  string
}

func (a *apiStub) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.lastPath = r.URL.Path
		a.lastQuery = r.URL.RawQuery
		a.lastKey = r.Header.Get("X-API-Key")
		if r.Body != nil {
			b, _ := io.ReadAll(r.Body)
			a.lastBody = string(b)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
}

func TestCtlCommands(t *testing.T) {
	stub := &apiStub{}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	cases := []struct {
		args      []string
		wantPath  string
		wantQuery string
	}{
		{[]string{"snapshot"}, "/api/v1/snapshot", ""},
		{[]string{"records", "-label", "IoT", "-country", "CN"}, "/api/v1/records", "country=CN&label=IoT&limit=20"},
		{[]string{"record", "1.2.3.4"}, "/api/v1/records/1.2.3.4", ""},
		{[]string{"stats", "ports"}, "/api/v1/stats/ports", ""},
		{[]string{"campaigns"}, "/api/v1/campaigns", ""},
		{[]string{"export"}, "/api/v1/export", ""},
	}
	for _, c := range cases {
		if err := run(ts.URL, "test-key", c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if stub.lastPath != c.wantPath {
			t.Errorf("%v: path = %q, want %q", c.args, stub.lastPath, c.wantPath)
		}
		if stub.lastQuery != c.wantQuery {
			t.Errorf("%v: query = %q, want %q", c.args, stub.lastQuery, c.wantQuery)
		}
		if stub.lastKey != "test-key" {
			t.Errorf("%v: key = %q", c.args, stub.lastKey)
		}
	}
}

func TestCtlAlert(t *testing.T) {
	stub := &apiStub{}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()
	err := run(ts.URL, "k", []string{"alert", "-prefix", "198.51.100.0/24", "-email", "soc@example.org"})
	if err != nil {
		t.Fatal(err)
	}
	if stub.lastPath != "/api/v1/alerts" {
		t.Errorf("path = %q", stub.lastPath)
	}
	if !strings.Contains(stub.lastBody, "198.51.100.0/24") || !strings.Contains(stub.lastBody, "soc@example.org") {
		t.Errorf("body = %q", stub.lastBody)
	}
	// Missing flags are rejected client-side.
	if err := run(ts.URL, "k", []string{"alert"}); err == nil {
		t.Error("alert without flags accepted")
	}
}

func TestCtlErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusUnauthorized)
		w.Write([]byte(`{"error":"nope"}`))
	}))
	defer ts.Close()
	if err := run(ts.URL, "bad", []string{"snapshot"}); err == nil {
		t.Error("4xx response should surface as error")
	}
	if err := run(ts.URL, "k", []string{"unknown-cmd"}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run(ts.URL, "k", []string{"record"}); err == nil {
		t.Error("record without ip accepted")
	}
	if err := run(ts.URL, "k", []string{"stats"}); err == nil {
		t.Error("stats without kind accepted")
	}
}

// stdout returns what fn writes to os.Stdout.
func stdout(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	err = fn()
	w.Close()
	return <-read, err
}

// TestExportWritesBodyVerbatim: exiotctl export prints exactly the bytes
// GET /api/v1/export serves, with no newline added, for an empty feed,
// a one-record feed (valid JSON, so a pretty-printer would indent it)
// and a longer one.
func TestExportWritesBodyVerbatim(t *testing.T) {
	t0 := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, n := range []int{0, 1, 5} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			coll := store.NewCollection[feed.Record]()
			for i := 0; i < n; i++ {
				coll.Insert(t0.Add(time.Duration(i)*time.Minute), feed.Record{
					IP:          fmt.Sprintf("203.0.113.%d", i+1),
					FirstSeen:   t0,
					Label:       feed.LabelIoT,
					TargetPorts: map[uint16]int{23: 200},
				})
			}
			cache := feedserve.New(coll, feedserve.Config{})
			defer cache.Close()
			srv := api.NewServer(nil, nil)
			srv.AddKey("k", "test-client")
			srv.SetFeedCache(cache)
			ts := httptest.NewServer(srv)
			defer ts.Close()

			req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/export", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-API-Key", "k")
			req.Header.Set("Accept-Encoding", "identity")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /api/v1/export: %d, %v", resp.StatusCode, err)
			}
			if got := bytes.Count(want, []byte("\n")); got != n {
				t.Fatalf("the export holds %d lines, want %d", got, n)
			}

			got, err := stdout(t, func() error { return run(ts.URL, "k", []string{"export"}) })
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("exiotctl export printed %q, the server sent %q", got, want)
			}
		})
	}
}
