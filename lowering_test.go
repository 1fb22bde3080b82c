// The one-lowering gate: a run is built from its experiment.Config through
// experiment.Build and nothing else. Outside internal/cluster, which defines
// them, only experiment.ClusterSpec and experiment.Build may call
// cluster.DefaultSpec and cluster.New in program code. Hand-built specs have
// dropped options twice — first the TCP overrides, then the AQM ablations,
// the link options and the hybrid and notification engines — each time while
// the cache key still carried them.
package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestClustersAreBuiltOnlyThroughExperiment(t *testing.T) {
	// lowering names, per package directory, the functions allowed to build
	// a cluster from a spec; nil allows the whole package.
	lowering := map[string]map[string]bool{
		"internal/cluster":    nil,
		"internal/experiment": {"ClusterSpec": true, "Build": true},
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			// Hidden directories, testdata, and nested modules (which cannot
			// import this module's internal packages) hold no program code
			// of this module.
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		allowed, owner := lowering[filepath.ToSlash(filepath.Dir(path))]
		if owner && allowed == nil {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "repro/internal/cluster" {
				continue
			}
			name = "cluster"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == "." {
				t.Errorf("%s: dot-imports internal/cluster, hiding any cluster.New from this check", fset.Position(imp.Pos()))
			}
		}
		if name == "" || name == "_" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv == nil && allowed[fd.Name.Name] {
				return false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == name &&
				(sel.Sel.Name == "New" || sel.Sel.Name == "DefaultSpec") {
				t.Errorf("%s: %s.%s outside the lowering — build the cluster with experiment.Build from an experiment.Config",
					fset.Position(sel.Pos()), name, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no program files to check; run from the module root")
	}
}
