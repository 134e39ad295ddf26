package engine

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mirror/internal/patomic"
)

// TestEngineSurface pins every role's method set, and so the whole Engine:
// 30 methods. A method added to a role, or one removed, must be listed here.
func TestEngineSurface(t *testing.T) {
	roles := []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[Memory](), []string{"Alloc", "CAS", "CASRebuilt", "CASRelaxed", "FreeUnpublished",
			"Load", "MakePersistent", "OpBegin", "OpEnd", "Publish", "Retire", "Store", "StoreInit", "TraversalLoad"}},
		{reflect.TypeFor[Lifecycle](), []string{"Crash", "Drain", "Freeze", "FreezeAfter", "NewCtx"}},
		{reflect.TypeFor[Recovery](), []string{"CheckInvariants", "Recover", "RecoverWith"}},
		{reflect.TypeFor[Detector](), []string{"Detect", "DetectBeginDeferred", "DetectDrain", "DetectEndDeferred"}},
		{reflect.TypeFor[Introspection](), []string{"Counters", "Devices", "Footprint", "Stats"}},
	}
	methods := func(typ reflect.Type) []string {
		var names []string
		for i := range typ.NumMethod() {
			names = append(names, typ.Method(i).Name) // sorted by reflect
		}
		return names
	}
	var all []string
	for _, r := range roles {
		if got := methods(r.typ); !slices.Equal(got, r.want) {
			t.Errorf("%s has methods %v, want %v", r.typ.Name(), got, r.want)
		}
		all = append(all, r.want...)
	}
	slices.Sort(all)
	if got := methods(reflect.TypeFor[Engine]()); !slices.Equal(got, all) || len(got) != 30 {
		t.Errorf("Engine has %d methods %v, want the roles' 30 %v", len(got), got, all)
	}
}

// TestConfigSurface pins Config's 8 fields, in order: a switch that no
// served, benchmarked or shipped path sets must not come in unnoticed. A
// field added here needs a caller that reaches it.
func TestConfigSurface(t *testing.T) {
	want := []string{"Kind", "Words", "RootFields", "Track", "Clients", "DetectRing", "MediaPath", "Attach"}
	typ := reflect.TypeFor[Config]()
	var got []string
	for i := range typ.NumField() {
		got = append(got, typ.Field(i).Name)
	}
	if !slices.Equal(got, want) || len(got) != 8 {
		t.Errorf("Config has %d fields %v, want 8 %v", len(got), got, want)
	}
}

// TestMemSurface pins patomic.Mem's exported methods: the Figure 4/5
// operations the engines and the substrate benchmark call, and the one test
// seam. An operation no caller uses must not come back unnoticed.
func TestMemSurface(t *testing.T) {
	want := []string{"CAS", "CheckInvariants", "CompareAndSwap", "InitCell", "InitWord", "Load",
		"OnInstallForTest", "PublishFence", "RecoverRange", "Stats", "Store"}
	typ := reflect.TypeFor[*patomic.Mem]()
	var got []string
	for i := range typ.NumMethod() {
		got = append(got, typ.Method(i).Name) // exported only, sorted by reflect
	}
	if !slices.Equal(got, want) || len(got) != 11 {
		t.Errorf("patomic.Mem has %d methods %v, want 11 %v", len(got), got, want)
	}
}

// TestNoCapabilityDiscoveryByTypeAssertion is a vet-style guard over every
// non-test file of the module: a value of one of this package's role
// interfaces (Engine, Memory, Detector, ...) must never be type-asserted to a
// non-exported interface or to a concrete engine type. That is how optional
// capabilities used to be discovered, and it is exactly what a pass-through
// wrapper silently defeats — whatever a caller needs of an engine is a
// method of a role, or routed on the Ctx.
func TestNoCapabilityDiscoveryByTypeAssertion(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	// Parse the module's non-test files per directory; only packages that
	// contain a type assertion at all are worth type-checking.
	dirs := make(map[string][]*ast.File)
	asserts := make(map[string]bool)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			_, nested := os.Stat(filepath.Join(path, "go.mod"))
			if strings.HasPrefix(d.Name(), ".") || (path != root && nested == nil) {
				return filepath.SkipDir // VCS and build output; other modules
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		dirs[dir] = append(dirs[dir], f)
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.TypeAssertExpr); ok {
				asserts[dir] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	for dir := range asserts {
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
		if _, err := conf.Check(dir, fset, dirs[dir], info); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		check := func(x, target ast.Expr) {
			if target == nil || !isEngineRole(info.TypeOf(x)) {
				return
			}
			if why := forbiddenTarget(info.TypeOf(target)); why != "" {
				t.Errorf("%s: an engine role value is type-asserted to %s (%s)",
					fset.Position(target.Pos()), types.ExprString(target), why)
			}
		}
		for _, f := range dirs[dir] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeAssertExpr:
					check(n.X, n.Type) // Type is nil inside a type switch's guard
				case *ast.TypeSwitchStmt:
					guard := n.Assign
					if as, ok := guard.(*ast.AssignStmt); ok {
						guard = &ast.ExprStmt{X: as.Rhs[0]}
					}
					x := guard.(*ast.ExprStmt).X.(*ast.TypeAssertExpr).X
					for _, cc := range n.Body.List {
						for _, target := range cc.(*ast.CaseClause).List {
							check(x, target)
						}
					}
				}
				return true
			})
		}
	}
}

// isEngineRole reports whether t is an interface type declared in this
// package.
func isEngineRole(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && types.IsInterface(named) && inThisPackage(named)
}

// forbiddenTarget says why asserting an engine role value to t is capability
// discovery, or "" if it is not.
func forbiddenTarget(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	switch {
	case !ok:
		return ""
	case types.IsInterface(named) && !named.Obj().Exported():
		return "a non-exported interface"
	case !types.IsInterface(named) && inThisPackage(named):
		return "a concrete engine type"
	}
	return ""
}

func inThisPackage(named *types.Named) bool {
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "mirror/internal/engine"
}
