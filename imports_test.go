package qosalloc_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsImported enforces "no package without an
// importer": every package under internal/ must be imported by non-test
// code outside its own directory. Directories the go tool skips
// (testdata, _ and . prefixes) and nested modules (their own go.mod, such
// as perfbench/) are not part of this module and are left out.
func TestEveryInternalPackageIsImported(t *testing.T) {
	const module = "qosalloc"
	fset := token.NewFileSet()
	pkgs := map[string]bool{}     // internal packages found
	imported := map[string]bool{} // paths imported from another directory
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		if strings.HasPrefix(dir, module+"/internal/") {
			pkgs[dir] = true
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if ip != dir {
				imported[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no internal packages; is the test running from the module root?")
	}
	var orphans []string
	for p := range pkgs {
		if !imported[p] {
			orphans = append(orphans, p)
		}
	}
	sort.Strings(orphans)
	for _, p := range orphans {
		t.Errorf("%s has no importer outside its own directory; delete it or wire it in", p)
	}
}
