package exiot_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"testing"

	"exiot/internal/feedserve"
)

// TestSnapshotExportEquivalence is the feed distribution layer's
// inertness proof. Every row's fingerprint already holds the snapshot
// export equal to the store walk; here the cached REST API serves those
// bytes too — plain, as the precomputed gzip variant, and revalidated to
// a body-less 304 by the ETag it advertised — at any worker count.
func TestSnapshotExportEquivalence(t *testing.T) {
	for _, r := range []row{{name: "workers=1", procs: 1}, {name: "workers=4", procs: 4}} {
		t.Run(r.name, func(t *testing.T) {
			out := prove(t, dayWorld, r)
			cache := out.server.NewFeedCache(feedserve.Config{})
			defer cache.Close()
			h := feedAPI(out.server, cache)

			plain := get(h, "/api/v1/export")
			if plain.Code != http.StatusOK || plain.Body.String() != out.fp.export {
				t.Fatalf("cached API export (status %d) differs from the store-walked export", plain.Code)
			}
			etag := plain.Header().Get("ETag")
			if etag == "" {
				t.Fatal("cached export carries no ETag")
			}

			gz := get(h, "/api/v1/export", "Accept-Encoding", "gzip")
			if enc := gz.Header().Get("Content-Encoding"); enc != "gzip" {
				t.Fatalf("Content-Encoding = %q", enc)
			}
			zr, err := gzip.NewReader(bytes.NewReader(gz.Body.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if raw, err := io.ReadAll(zr); err != nil || string(raw) != out.fp.export {
				t.Fatalf("gzip export does not decompress to the store-walked bytes (%v)", err)
			}

			cond := get(h, "/api/v1/export", "If-None-Match", etag)
			if cond.Code != http.StatusNotModified || cond.Body.Len() != 0 {
				t.Fatalf("conditional export: status=%d body=%d bytes", cond.Code, cond.Body.Len())
			}
		})
	}
}
