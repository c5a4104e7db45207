package console

// Docs-drift tests for the console surface: docs/API.md must cover
// every wired /console/api/* route (path and metering name), and
// docs/OPERATIONS.md must document the console section, its flag, and
// the structured metrics endpoint it complements. The api-side docs
// test covers the exiot_console_* metric families (the blank import in
// internal/api/metrics_api_test.go registers them there).

import (
	"os"
	"strings"
	"testing"
)

func readDoc(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(raw)
}

func TestAPIDocCoversConsoleRoutes(t *testing.T) {
	doc := readDoc(t, "../../docs/API.md")
	eps := New(Config{}).routes()
	if len(eps) < 5 {
		t.Fatalf("console route table has only %d endpoints", len(eps))
	}
	for _, ep := range eps {
		if !strings.Contains(doc, "`"+ep.Method+" "+ep.Path+"`") {
			t.Errorf("console route %s %s is wired but not documented in docs/API.md", ep.Method, ep.Path)
		}
		if !strings.Contains(doc, "`"+ep.Name+"`") {
			t.Errorf("console endpoint name %q missing from docs/API.md metering list", ep.Name)
		}
	}
	// The static mount is registered outside the route table but metered
	// like everything else.
	if !strings.Contains(doc, "`console_static`") {
		t.Error("docs/API.md does not document the console_static endpoint name")
	}
}

func TestOperationsDocCoversConsole(t *testing.T) {
	doc := readDoc(t, "../../docs/OPERATIONS.md")
	for _, want := range []string{
		"## Operator console", // the section itself
		"`-console`",          // the flag that enables it
		"`/console/`",         // where it serves
		"`/metrics.json`",     // the structured metrics endpoint
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/OPERATIONS.md is missing %s", want)
		}
	}
}
