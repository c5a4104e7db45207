package console

import (
	"io/fs"
	"regexp"
	"strings"
	"testing"
)

// TestEmbeddedAssetReferencesResolve statically checks the dashboard's
// asset graph: every src=/href= reference in index.html must name a file
// actually present in the embed.FS, and every embedded file must be
// reachable from index.html — a renamed or forgotten asset fails the
// build's test run instead of 404ing in production.
func TestEmbeddedAssetReferencesResolve(t *testing.T) {
	index, err := assets.ReadFile("assets/index.html")
	if err != nil {
		t.Fatalf("index.html missing from embed.FS: %v", err)
	}

	refRe := regexp.MustCompile(`(?:src|href)="([^"]+)"`)
	referenced := map[string]bool{"index.html": true}
	for _, m := range refRe.FindAllStringSubmatch(string(index), -1) {
		ref := m[1]
		if strings.Contains(ref, "://") || strings.HasPrefix(ref, "/") || strings.HasPrefix(ref, "#") {
			continue // absolute URLs and API paths are not embedded assets
		}
		referenced[ref] = true
		if _, err := assets.ReadFile("assets/" + ref); err != nil {
			t.Errorf("index.html references %q but the embed.FS has no such file", ref)
		}
	}

	// The reverse direction: no orphaned embedded files.
	err = fs.WalkDir(assets, "assets", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := strings.TrimPrefix(path, "assets/")
		if !referenced[name] {
			t.Errorf("embedded asset %q is not referenced by index.html", name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDashboardCallsMountedRoutes cross-checks app.js against the route
// table: every /console/api/* path the front-end fetches must be a
// registered endpoint.
func TestDashboardCallsMountedRoutes(t *testing.T) {
	js, err := assets.ReadFile("assets/app.js")
	if err != nil {
		t.Fatal(err)
	}
	mounted := map[string]bool{}
	for _, ep := range New(Config{}).routes() {
		base := strings.TrimSuffix(ep.Path, "/{ip}")
		mounted[base] = true
	}
	callRe := regexp.MustCompile("\\$\\{API\\}/([a-z]+)")
	for _, m := range callRe.FindAllStringSubmatch(string(js), -1) {
		path := "/console/api/" + m[1]
		if !mounted[path] {
			t.Errorf("app.js calls %s, which is not a registered console route", path)
		}
	}
}
