package api_test

// Docs-drift tests: docs/OPERATIONS.md must list every metric the
// pipeline registers (and nothing that no longer exists), and
// docs/API.md must cover every route the server actually wires. The
// blank imports in metrics_api_test.go pull in every instrumented
// package, so the default registry holds the full catalogue here.

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
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

// TestLayerVocabularyMatchesLadder keeps production and the benchmark
// ladder on one vocabulary: every layer registered on exiot_layer_seconds
// has a row in OPERATIONS.md's layer table (and every row is a
// registered layer), and names a rung of BENCHMARK.json's per-layer
// metrics (`<layer>.` or `<layer>_` prefix). simnet is the one exception:
// the benchmark generates its traffic in setup, outside the ladder.
func TestLayerVocabularyMatchesLadder(t *testing.T) {
	doc := readDoc(t, "../../docs/OPERATIONS.md")
	start := strings.Index(doc, "\n## Layer timing\n")
	if start < 0 {
		t.Fatal(`docs/OPERATIONS.md has no "## Layer timing" section`)
	}
	section := doc[start+1:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z.]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}

	var bench struct {
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readDoc(t, "../../BENCHMARK.json")), &bench); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}

	fam, ok := telemetry.Default().FamilySnapshot("exiot_layer_seconds")
	if !ok || len(fam.Series) == 0 {
		t.Fatal("no layer registered on exiot_layer_seconds; import side effects missing")
	}
	registered := map[string]bool{}
	for _, s := range fam.Series {
		layer := s.Labels[0]
		registered[layer] = true
		if !documented[layer] {
			t.Errorf("layer %q is registered but has no row in docs/OPERATIONS.md's layer table", layer)
		}
		if layer == "simnet" {
			continue
		}
		rung := false
		for _, m := range bench.PerLayer {
			if strings.HasPrefix(m.Name, layer+".") || strings.HasPrefix(m.Name, layer+"_") {
				rung = true
				break
			}
		}
		if !rung {
			t.Errorf("layer %q names no per_layer metric in BENCHMARK.json", layer)
		}
	}
	for layer := range documented {
		if !registered[layer] {
			t.Errorf("docs/OPERATIONS.md's layer table lists %q, which is not a registered layer", layer)
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

// TestOperationsDocCoversFeedFlags holds the Flags table of
// docs/OPERATIONS.md to the flags the feed's binaries define, both ways:
// every flag.X("name", …) in a main.go has a row naming `-name` in its
// Flag column, and every flag a row names is still defined. Upgrade notes
// in the Meaning column may name removed flags.
func TestOperationsDocCoversFeedFlags(t *testing.T) {
	doc := readDoc(t, "../../docs/OPERATIONS.md")
	start := strings.Index(doc, "\n## Flags\n")
	if start < 0 {
		t.Fatal("docs/OPERATIONS.md has no Flags section")
	}
	section := doc[start+1:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	row := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\| ([^|]*) \\|")
	name := regexp.MustCompile("`-([a-z0-9-]+)`")
	documented := map[string]map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		if documented[m[1]] == nil {
			documented[m[1]] = map[string]bool{}
		}
		for _, f := range name.FindAllStringSubmatch(m[2], -1) {
			documented[m[1]][f[1]] = true
		}
	}

	for _, bin := range []string{"exiotd", "flowsampler", "telescopegen", "experiments"} {
		defined := definedFlags(t, "../../cmd/"+bin+"/main.go")
		for f := range defined {
			if !documented[bin][f] {
				t.Errorf("%s defines -%s, but the Flags table of docs/OPERATIONS.md has no row for it", bin, f)
			}
		}
		for f := range documented[bin] {
			if !defined[f] {
				t.Errorf("the Flags table of docs/OPERATIONS.md lists %s -%s, which it no longer defines", bin, f)
			}
		}
		delete(documented, bin)
	}
	for bin := range documented {
		t.Errorf("the Flags table of docs/OPERATIONS.md has rows for %s, whose flags this test does not read", bin)
	}
}

// definedFlags returns the names of the flag.X("name", …) calls in a
// command's source.
func definedFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	names := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names[name] = true
			}
		}
		return true
	})
	if len(names) == 0 {
		t.Fatalf("%s defines no flags: is it still the command's flag site?", path)
	}
	return names
}

// TestDocCitationsResolve holds the docs and CI to the test suite: every
// Test*, Benchmark* or Fuzz* name the prose docs cite, and every such
// name in a -run, -bench or -fuzz pattern of the CI workflow, is a
// function in some _test.go. A renamed test would otherwise leave
// `go test -run X` matching nothing, which passes.
func TestDocCitationsResolve(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	defined := map[string]bool{}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../.." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, m := range decl.FindAllStringSubmatch(readDoc(t, path), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no docs/*.md found (%v)", err)
	}
	docs = append(docs, "../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md", "../../.claude/skills/verify/SKILL.md")
	for _, path := range docs {
		for _, n := range name.FindAllString(readDoc(t, path), -1) {
			if !defined[n] {
				t.Errorf("%s cites %s, which no _test.go defines", strings.TrimPrefix(path, "../../"), n)
			}
		}
	}

	pattern := regexp.MustCompile(`-(?:run|bench|fuzz)[= ]+('[^']*'|\S+)`)
	for _, m := range pattern.FindAllStringSubmatch(readDoc(t, "../../.github/workflows/ci.yml"), -1) {
		for _, n := range name.FindAllString(m[1], -1) {
			if !defined[n] {
				t.Errorf(".github/workflows/ci.yml runs %s %s, and no _test.go defines %s", m[0][:strings.IndexAny(m[0], "= ")], m[1], n)
			}
		}
	}
}
