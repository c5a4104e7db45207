package api_test

// Docs-drift tests: docs/OPERATIONS.md must list every metric the
// pipeline registers (and nothing that no longer exists), and
// docs/API.md must cover every route the server actually wires. The
// blank imports in metrics_api_test.go pull in every instrumented
// package, so the default registry holds the full catalogue here.

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"exiot/internal/api"
	"exiot/internal/feed"
	"exiot/internal/telemetry"
)

func readDoc(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(raw)
}

func TestOperationsDocMatchesMetricCatalogue(t *testing.T) {
	doc := readDoc(t, "../../docs/OPERATIONS.md")

	// The stage histogram registers lazily on the first span; force it
	// so the catalogue is complete regardless of test order.
	telemetry.Default().StageTimer("generate")

	registered := map[string]bool{}
	for _, m := range telemetry.Default().Metrics() {
		if !strings.HasPrefix(m.Name, "exiot_") {
			continue // test-local families from other suites
		}
		registered[m.Name] = true
		if !strings.Contains(doc, "`"+m.Name+"`") {
			t.Errorf("metric %s (%s) is registered but not documented in docs/OPERATIONS.md", m.Name, m.Type)
		}
	}
	if len(registered) < 20 {
		t.Fatalf("only %d exiot_ families registered; import side effects missing", len(registered))
	}

	// Reverse direction: every exiot_-token the doc mentions must still
	// exist, so removed metrics cannot linger in the docs.
	for _, tok := range regexp.MustCompile(`exiot_[a-z0-9_]+`).FindAllString(doc, -1) {
		if !registered[tok] {
			t.Errorf("docs/OPERATIONS.md mentions %s, which is not a registered metric", tok)
		}
	}
}

func TestAPIDocMatchesRouteTable(t *testing.T) {
	doc := readDoc(t, "../../docs/API.md")

	eps := api.NewServer(nullSource{}, nil).Endpoints()
	if len(eps) < 10 {
		t.Fatalf("route table has only %d endpoints", len(eps))
	}
	for _, ep := range eps {
		if !strings.Contains(doc, "`"+ep.Path+"`") && !strings.Contains(doc, ep.Path+"`") && !strings.Contains(doc, ep.Path+" ") && !strings.Contains(doc, ep.Path+"\n") {
			t.Errorf("route %s %s is wired but not documented in docs/API.md", ep.Method, ep.Path)
		}
		// The metering section must name every endpoint label.
		if !strings.Contains(doc, "`"+ep.Name+"`") {
			t.Errorf("endpoint name %q missing from docs/API.md metering section", ep.Name)
		}
	}
}

// jsonTags returns the wire names of every exported, non-inlined field
// of a struct type, following the encoding/json tag rules the server
// actually marshals with.
func jsonTags(typ reflect.Type) []string {
	var tags []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag == "-" {
			continue
		}
		if tag == "" {
			tag = f.Name
		}
		tags = append(tags, tag)
	}
	return tags
}

func TestFeedConsumersDocMatchesSurface(t *testing.T) {
	doc := readDoc(t, "../../docs/FEED_CONSUMERS.md")

	// Every consumer-facing feed route must be in the guide. Operator
	// plumbing (/metrics, /healthz) is deliberately out of scope, so
	// this is one-directional.
	for _, path := range []string{
		"/api/v1/records",
		"/api/v1/export",
		"/api/v1/events",
	} {
		found := false
		for _, ep := range api.NewServer(nullSource{}, nil).Endpoints() {
			if ep.Path == path {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("consumer route %s is documented in the guide but no longer wired", path)
		}
		if !strings.Contains(doc, "`"+path+"`") && !strings.Contains(doc, path+"?") && !strings.Contains(doc, path+" ") && !strings.Contains(doc, path+"\n") {
			t.Errorf("consumer route %s is wired but missing from docs/FEED_CONSUMERS.md", path)
		}
	}

	// The NDJSON schema section must cover every field a consumer can
	// receive — the guide reflects the live structs, not a hand list.
	for _, tag := range jsonTags(reflect.TypeOf(feed.Record{})) {
		if !strings.Contains(doc, "`"+tag+"`") {
			t.Errorf("feed.Record field %q is marshaled to consumers but undocumented in docs/FEED_CONSUMERS.md", tag)
		}
	}
	for _, tag := range jsonTags(reflect.TypeOf(feed.Provenance{})) {
		if !strings.Contains(doc, "`"+tag+"`") {
			t.Errorf("feed.Provenance field %q is marshaled to consumers but undocumented in docs/FEED_CONSUMERS.md", tag)
		}
	}
}

func TestOperationsDocCoversFeedFlags(t *testing.T) {
	doc := readDoc(t, "../../docs/OPERATIONS.md")
	if !strings.Contains(doc, "`-feed-rebuild-every`") {
		t.Error("exiotd flag -feed-rebuild-every is missing from docs/OPERATIONS.md")
	}
}
