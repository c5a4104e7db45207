// The guard that keeps production code to one path: every exported
// function, method and type declared outside tests under internal/ and
// cmd/ must be referenced from a non-test file of the module — bench/,
// examples/ and this package count. An export only tests call is a path
// nothing ships; a reference implementation belongs in the _test.go file
// that compares against it (internal/trw/reference_test.go is the model).
package exiot_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testSeams are the exports that only tests call and that stay, because a
// test in another package needs them. A key is a package directory (every
// export in it) or one name as scanExports reports it; the value names the
// test that needs it.
var testSeams = map[string]string{
	"internal/allocbudget":                      "test-support package: TestIngestAllocBudget, TestRecordsAllocBudget and TestQueueAllocBudget measure through it",
	"internal/simnet/simnettest":                "test-support package: TestRawVectorGoldenDigest and TestAddrRepetitionMatchesSet cut their flows with it",
	"internal/packet.MustParseIP":               "TestConsolePacketPathZeroAlloc and the tests of a dozen packages write addresses as literals",
	"internal/api.Server.Endpoints":             "TestAPIDocMatchesRouteTable (package api_test) diffs docs/API.md against the route table",
	"internal/telemetry.Registry.Metrics":       "TestOperationsDocMatchesMetricCatalogue (package api_test) diffs docs/OPERATIONS.md against the catalogue",
	"internal/api.Server.SetTelemetry":          "TestHealthzEndpointDegrades (package api_test) substitutes the health tracker",
	"internal/wire.Sender.ResetConn":            "TestClusterFeedEquivalence drops shippers' connections mid-stream",
	"internal/pipeline.Aggregator.PendingHours": "TestClusterFeedEquivalence and TestScenarioPartitionInvariance check that no merged hour is left pending",
	"internal/durable.RecordOffsets":            "TestKillRecoverEquivalence tears the WAL at record boundaries",
	"internal/core.System.Pipeline":             "the root proof rows fingerprint the system's sampler",
	"internal/pipeline.Local.Sampler":           "the root proof rows fingerprint the sampler's counters",
	"internal/pcapio.NewWriter":                 "TestReplayFileHourBoundaries and exiotctl's capinfo tests write the captures they read",
}

// TestEveryExportHasAShippedCaller fails on an export under internal/ or
// cmd/ that no non-test file references and that testSeams does not name.
func TestEveryExportHasAShippedCaller(t *testing.T) {
	scan, err := scanExports(".", "internal", "cmd")
	if err != nil {
		t.Fatal(err)
	}
	if scan.declared < 500 {
		t.Fatalf("scanned only %d exported declarations; the scan is not seeing the module", scan.declared)
	}
	if len(testSeams) > 15 {
		t.Errorf("testSeams holds %d entries; keep it to the 15 seams other packages' tests need", len(testSeams))
	}
	matched := map[string]bool{}
	for _, name := range scan.unused {
		if key := seamFor(name); key != "" {
			matched[key] = true
			continue
		}
		t.Errorf("%s: no non-test file references it; delete it, or move it into the test that needs it", name)
	}
	for key := range testSeams {
		if !matched[key] {
			t.Errorf("testSeams names %s, which is not an export only tests call; drop the entry", key)
		}
	}
	t.Logf("%d exported declarations, %d referenced only by tests (%d allowed seams)", scan.declared, len(scan.unused), len(testSeams))
}

// TestScanExportsFixture runs the scanner on a module with one export
// only its test calls, one a shipped file calls, one method that only
// satisfies fmt.Stringer, and one type only a blank interface assertion
// names: it must flag the first and the last.
func TestScanExportsFixture(t *testing.T) {
	scan, err := scanExports("testdata/exportguard", "internal")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/lib.Asserted", "internal/lib.OnlyTested"}; !reflect.DeepEqual(scan.unused, want) {
		t.Errorf("flagged %q, want %q", scan.unused, want)
	}
	if scan.declared != 6 {
		t.Errorf("declared = %d, want 6 (OnlyTested, Shipped, Label, Label.String, Asserted, Asserted.String)", scan.declared)
	}
}

func allBlank(names []*ast.Ident) bool {
	for _, id := range names {
		if id.Name != "_" {
			return false
		}
	}
	return true
}

func seamFor(name string) string {
	for key := range testSeams {
		if name == key || strings.HasPrefix(name, key+".") {
			return key
		}
	}
	return ""
}

type exportScan struct {
	declared int      // exported funcs, methods and types in scope
	unused   []string // those nothing outside tests references, sorted
}

// scanExports type-checks the non-test files of the module rooted at root
// and reports the exported funcs, methods and types declared in packages
// under the scope directories that no non-test file references. A
// method's own receiver is no reference, nor is a blank interface
// assertion (var _ I = (*T)(nil)), and a method that completes an
// interface declared in the module or in a package it imports counts as
// called, since it is called through that interface.
func scanExports(root string, scope ...string) (exportScan, error) {
	m, err := loadModule(root)
	if err != nil {
		return exportScan{}, err
	}
	paths := m.paths

	used := map[types.Object]bool{}
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			used[o.Origin()] = true
		case *types.TypeName:
			used[o] = true
		}
	}
	for _, path := range paths {
		info := m.infos[path]
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl: // skip n.Recv: a receiver names its own type
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.ValueSpec: // var _ I = (*T)(nil) asserts; it calls nothing
				return n.Type == nil || !allBlank(n.Names)
			case *ast.Ident:
				mark(info.Uses[n])
			}
			return true
		}
		for _, f := range m.files[path] {
			ast.Inspect(f, visit)
		}
	}

	ifaces := m.interfaces(paths)
	for _, path := range paths {
		for _, named := range namedTypes(m.pkgs[path]) {
			if types.IsInterface(named) || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(named)
			for _, iface := range ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, named.Obj().Pkg(), iface.Method(i).Name())
					mark(obj)
				}
			}
		}
	}

	var scan exportScan
	report := func(obj types.Object, name string) {
		scan.declared++
		if !used[obj] {
			scan.unused = append(scan.unused, name)
		}
	}
	for _, path := range paths {
		dir := m.dirs[path]
		if !inScope(dir, scope) {
			continue
		}
		pkg := m.pkgs[path]
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if _, ok := obj.(*types.Func); ok && obj.Exported() {
				report(obj, dir+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			if tn.Exported() {
				report(tn, dir+"."+name)
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || tn.IsAlias() || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if meth := named.Method(i); meth.Exported() {
					report(meth, dir+"."+name+"."+meth.Name())
				}
			}
		}
	}
	sort.Strings(scan.unused)
	return scan, nil
}

var (
	modulesMu sync.Mutex
	modules   = map[string]*moduleChecker{}
)

// loadModule type-checks the non-test files of the module rooted at root
// (go/build constraints honoured), once per root: the export and settings
// guards read the same module.
func loadModule(root string) (*moduleChecker, error) {
	modulesMu.Lock()
	defer modulesMu.Unlock()
	if m, ok := modules[root]; ok {
		return m, nil
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &moduleChecker{fset: fset, files: map[string][]*ast.File{}, dirs: map[string]string{},
		pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		path := mod
		if rel != "." {
			path += "/" + rel
		}
		m.files[path] = append(m.files[path], f)
		m.dirs[path] = rel
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range m.files {
		m.paths = append(m.paths, path)
	}
	sort.Strings(m.paths)
	if m.std, err = exportImporter(root, fset, m.files); err != nil {
		return nil, err
	}
	for _, path := range m.paths {
		if _, err := m.Import(path); err != nil {
			return nil, err
		}
	}
	modules[root] = m
	return m, nil
}

func inScope(dir string, scope []string) bool {
	for _, s := range scope {
		if dir == s || strings.HasPrefix(dir, s+"/") {
			return true
		}
	}
	return false
}

// moduleChecker type-checks the module's packages from source, on demand
// and once each, and imports everything else from export data.
type moduleChecker struct {
	fset  *token.FileSet
	paths []string               // the module's import paths, sorted
	files map[string][]*ast.File // by import path
	dirs  map[string]string      // import path → directory relative to the root
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	std   types.Importer
}

func (m *moduleChecker) Import(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	m.pkgs[path], m.infos[path] = pkg, info
	return pkg, nil
}

// interfaces returns every interface with methods that the module
// declares, writes as a literal, or finds in a package-level declaration
// of a package it imports, directly or not.
func (m *moduleChecker) interfaces(paths []string) []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if ok && !seen[iface] && iface.NumMethods() > 0 && iface.IsMethodSet() {
			seen[iface] = true
			out = append(out, iface)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, named := range namedTypes(pkg) {
			if named.TypeParams().Len() == 0 {
				add(named)
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, path := range paths {
		walk(m.pkgs[path])
		for _, tv := range m.infos[path].Types {
			if lit, ok := tv.Type.(*types.Interface); ok {
				add(lit)
			}
		}
	}
	return out
}

// exportImporter imports the packages outside the module from their
// export data, located for all of them by one go list run: importer.Default
// runs go list once per package, which costs seconds over a module.
func exportImporter(root string, fset *token.FileSet, files map[string][]*ast.File) (types.Importer, error) {
	seen := map[string]bool{}
	args := []string{"list", "-deps", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for _, fs := range files {
		for _, f := range fs {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return nil, err
				}
				if _, inModule := files[path]; !inModule && !seen[path] && path != "unsafe" {
					seen[path] = true
					args = append(args, path)
				}
			}
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			exports[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

func namedTypes(pkg *types.Package) []*types.Named {
	var out []*types.Named
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				out = append(out, named)
			}
		}
	}
	return out
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s names no module", gomod)
}
