// The guard that keeps DESIGN.md's "Settings" table true. Every exported
// field of an exported struct under internal/ whose name ends in Config,
// and of durable.Options and experiments.Scale, must be named there, and
// every field or constructor the table names must exist. A setting that
// appears unexplained, or an explanation that outlives its setting, fails.
package exiot_test

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// settingsAlso are the settings structs whose names do not end in Config.
var settingsAlso = []string{"durable.Options", "experiments.Scale"}

// TestSettingsTableMatchesCode fails on a settings field DESIGN.md's
// "Settings" section does not name, and on a name there the code lacks.
func TestSettingsTableMatchesCode(t *testing.T) {
	check, err := checkSettings(".", "internal", settingsAlso)
	if err != nil {
		t.Fatal(err)
	}
	if check.fields < 50 {
		t.Fatalf("found only %d settings fields; the scan is not seeing the module", check.fields)
	}
	for _, name := range check.missing {
		t.Errorf("%s: DESIGN.md \"Settings\" does not say why it exists; name it there, or make it a constant", name)
	}
	for _, name := range check.stale {
		t.Errorf("DESIGN.md \"Settings\" names %s, which the code does not declare", name)
	}
	t.Logf("%d settings fields, %d names in the table", check.fields, check.named)
}

// TestSettingsGuardFixture runs the check on a module whose table leaves
// out one planted field and names a field and a constructor signature
// the code does not have: it must flag exactly those three.
func TestSettingsGuardFixture(t *testing.T) {
	check, err := checkSettings("testdata/settingsguard", "internal", []string{"lib.Options"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.Config.Planted"}; !reflect.DeepEqual(check.missing, want) {
		t.Errorf("missing = %q, want %q", check.missing, want)
	}
	if want := []string{"lib.Config.Gone", "lib.New(addr)"}; !reflect.DeepEqual(check.stale, want) {
		t.Errorf("stale = %q, want %q", check.stale, want)
	}
	if check.fields != 5 {
		t.Errorf("fields = %d, want 5 (Config's Named, Planted, Hook and Every; Options.Free)", check.fields)
	}
}

type settingsCheck struct {
	fields  int      // settings fields the code declares
	named   int      // names the table gives
	missing []string // fields the table does not name, sorted
	stale   []string // names the code does not declare, sorted
}

// checkSettings compares the settings fields declared under scope in the
// module at root with the names in its DESIGN.md "Settings" section.
// also lists "pkg.Type" structs to cover beyond those named *Config.
func checkSettings(root, scope string, also []string) (settingsCheck, error) {
	m, err := loadModule(root)
	if err != nil {
		return settingsCheck{}, err
	}
	byName := map[string]*types.Package{}
	for _, path := range m.paths {
		if inScope(m.dirs[path], []string{scope}) {
			byName[m.pkgs[path].Name()] = m.pkgs[path]
		}
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return settingsCheck{}, err
	}
	named, err := settingsNames(string(design))
	if err != nil {
		return settingsCheck{}, err
	}

	var check settingsCheck
	covered := map[string]bool{}
	for _, name := range also {
		covered[name] = true
	}
	for _, pkg := range byName {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || covered[pkg.Name()+"."+name]) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					check.fields++
					if full := pkg.Name() + "." + name + "." + f.Name(); !named[full] {
						check.missing = append(check.missing, full)
					}
				}
			}
		}
	}
	for name := range named {
		check.named++
		if !declared(byName, name) {
			check.stale = append(check.stale, name)
		}
	}
	sort.Strings(check.missing)
	sort.Strings(check.stale)
	return check, nil
}

// declared reports whether name, as settingsNames gives it, is an
// exported struct field ("pkg.Type.Field") or a function with exactly
// those parameter names ("pkg.Func(a, b)") in the packages by name.
func declared(byName map[string]*types.Package, name string) bool {
	if fn, params, ok := strings.Cut(name, "("); ok {
		pkgName, fnName, _ := strings.Cut(fn, ".")
		pkg := byName[pkgName]
		if pkg == nil {
			return false
		}
		f, ok := pkg.Scope().Lookup(fnName).(*types.Func)
		if !ok {
			return false
		}
		sig := f.Type().(*types.Signature)
		var got []string
		for i := 0; i < sig.Params().Len(); i++ {
			got = append(got, sig.Params().At(i).Name())
		}
		return strings.Join(got, ", ")+")" == params
	}
	parts := strings.Split(name, ".")
	if len(parts) != 3 || byName[parts[0]] == nil {
		return false
	}
	tn, ok := byName[parts[0]].Scope().Lookup(parts[1]).(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Exported() && st.Field(i).Name() == parts[2] {
			return true
		}
	}
	return false
}

var backticked = regexp.MustCompile("`([^`]+)`")

// settingsNames reads the names in the "Settings" section of a DESIGN.md:
// the first cell of each table row, and the "**Plumbing:**" line. A cell
// lists names in backticks. "pkg.Type" or "pkg.Type.Field" names a
// struct, and the bare names after it are more of its fields; a name with
// parentheses is a function and its parameters. Names come back as
// "pkg.Type.Field" and "pkg.Func(a, b)".
func settingsNames(design string) (map[string]bool, error) {
	_, section, ok := strings.Cut(design, "\n## Settings")
	if !ok {
		return nil, fmt.Errorf("DESIGN.md has no \"## Settings\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	named := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		var cell string
		switch {
		case strings.HasPrefix(line, "**Plumbing:**"):
			cell = strings.TrimPrefix(line, "**Plumbing:**")
		case strings.HasPrefix(line, "|") && !strings.HasPrefix(line, "|---") && !strings.HasPrefix(line, "| Setting "):
			cell = strings.Split(line, "|")[1]
		default:
			continue
		}
		typ := ""
		for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
			name := m[1]
			switch parts := strings.Split(name, "."); {
			case strings.Contains(name, "("):
				named[name] = true
			case len(parts) == 3:
				typ = parts[0] + "." + parts[1]
				named[name] = true
			case len(parts) == 2:
				typ = name
			case typ == "":
				return nil, fmt.Errorf("DESIGN.md \"Settings\": %q names a field before any type: %s", name, line)
			default:
				named[typ+"."+name] = true
			}
		}
	}
	return named, nil
}
