package pano_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// allowed is one name a guard lets stand. Class is one of the closed set
// in allowClasses.
type allowed struct{ class, why string }

// in reports whether a names one of classes and gives a one-line reason.
func (a allowed) in(classes string) bool {
	return len(a.class) == 1 && strings.Contains(classes, a.class) && a.why != "" && !strings.Contains(a.why, "\n")
}

// allowClasses is the closed set of reasons both guards accept; each
// guard takes only its own classes: exports (a)-(d), knobs (a), (e), (f).
var allowClasses = map[string]string{
	"a": "documented in README.md or DESIGN.md as API",
	"b": "a reference implementation or golden input tests compare against",
	"c": "cross-package test support",
	"d": "the implicit zero value of an enum",
	"e": "a seam through which tests swap in a fake clock or client",
	"f": "named by benchmark/, whose harness builds against it unchanged",
}

// exportAllowlist names, as pkg.Name or pkg.Type.Method, the exported
// identifiers under internal/ and cmd/internal/ that no non-test code
// uses and that stay anyway.
var exportAllowlist = map[string]allowed{
	"abr.NewBOLA":                   {"b", "BOLA is the buffer-based controller the sim and root suites run sessions under beside MPC"},
	"abr.Starved":                   {"b", "the all-smallest exit over whole rows, which internal/player's tests hold the table-read floor to"},
	"client.VirtualNet.Requests":    {"c", "internal/swarm's TestTurnsMatchLoopback counts the twin's requests against the wire's"},
	"client.VirtualNet.TurnsOpened": {"c", "internal/swarm's TestTurnsMatchLoopback counts the twin's turns against the wire's; no public surface shows them"},
	"frame.Frame.Clone":             {"c", "codec, quality and abr tests copy a frame before distorting it"},
	"frame.Frame.Fill":              {"c", "client, codec, jnd and quality tests build flat frames"},
	"frame.MSE":                     {"c", "codec and quality tests compare a distorted frame against its original"},
	"obs.Event.Attr":                {"c", "client, server, sim and trace tests read one attribute of a logged event"},
	"obs.Event.Str":                 {"c", "chaos, client, server, sim and trace tests read one string attribute of a logged event"},
	"obs.EventLog.Last":             {"c", "chaos, client, server, sim and trace tests find the latest event of a kind"},
	"obs.Registry.CounterExemplar":  {"c", "internal/fleet's tests read the trace id a counter's exemplar carries"},
	"obs.Registry.CounterSum":       {"c", "client, fleet, swarm and testbed tests total a counter family across its labels"},
	"obs.Registry.HistogramSum":     {"c", "internal/sim's tests read the seconds a histogram accumulated"},
	"telemetry.AggSum":              {"d", "the zero GaugeAgg: a gauge family with no hint sums"},
}

// TestEveryExportHasACaller type-checks every non-test package of the
// module (the standard library from source, so nothing is downloaded)
// and fails on each exported package-level func, type, var or const and
// each exported method declared under internal/ or cmd/internal/ that
// no non-test file of the module references. References are matched by
// types.Object, so methods that share a name are told apart. A method
// that implements an interface its type satisfies is called through the
// interface and is not flagged; struct fields are out of scope, since
// encoding/json and encoding/xml read them by reflection.
func TestEveryExportHasACaller(t *testing.T) {
	m := loadModule(t)
	seen := map[string]bool{}
	for _, obj := range m.exported() {
		key := m.key(obj)
		if seen[key] {
			t.Errorf("%s: %s names a second identifier; the guarded packages need distinct names", m.pos(obj), key)
		}
		seen[key] = true
		a, listed := exportAllowlist[key]
		used, exempt := m.used[obj], m.implementsInterface(obj)
		switch {
		case listed && (used || exempt):
			t.Errorf("%s: %s is allowlisted but has a non-test caller; drop it from exportAllowlist", m.pos(obj), key)
		case listed:
			if testing.Verbose() {
				t.Logf("allowed %s (%s: %s): %s", key, a.class, allowClasses[a.class], a.why)
			}
		case !used && !exempt:
			t.Errorf("%s: %s is exported but no non-test code uses it; delete it, move it to export_test.go, or allowlist it", m.pos(obj), key)
		}
	}
	for key, a := range exportAllowlist {
		if !seen[key] {
			t.Errorf("exportAllowlist names %s, which is not an exported identifier under internal/ or cmd/internal/", key)
		}
		if !a.in("abcd") {
			t.Errorf("exportAllowlist %s: want a class in (a)-(d) and a one-line reason, got %q %q", key, a.class, a.why)
		}
	}
}

// module is every non-test package of the module, type-checked.
type module struct {
	fset   *token.FileSet
	root   string
	path   string
	std    types.Importer
	pkgs   map[string]*types.Package
	dirs   map[string]string // import path → directory
	decls  map[types.Object]ast.Node
	used   map[types.Object]bool
	ifaces map[*types.Interface]bool
	// sets holds, per struct field, the import paths of the packages
	// whose non-test files write it.
	sets map[*types.Var]map[string]bool
}

var (
	moduleOnce sync.Once
	moduleVal  *module
	moduleErr  error
)

// loadModule type-checks the module once per test binary; both guards
// read the same result.
func loadModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() { moduleVal, moduleErr = typeCheckModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleVal
}

func typeCheckModule() (*module, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &module{
		fset:   fset,
		root:   root,
		path:   modulePath(string(gomod)),
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*types.Package{},
		dirs:   map[string]string{},
		decls:  map[types.Object]ast.Node{},
		used:   map[types.Object]bool{},
		ifaces: map[*types.Interface]bool{},
		sets:   map[*types.Var]map[string]bool{},
	}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, p)
		path := m.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		m.dirs[path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range m.dirs {
		if _, err := m.Import(p); err != nil {
			return nil, err
		}
	}
	m.collectInterfaces()
	return m, nil
}

func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// Import type-checks the module's own packages from their non-test
// files and hands every other path to the standard library's source
// importer. A directory with no Go files yields a nil package.
func (m *module) Import(path string) (*types.Package, error) {
	dir, ours := m.dirs[path]
	if !ours {
		return m.std.Import(path)
	}
	if pkg, done := m.pkgs[path]; done {
		return pkg, nil
	}
	m.pkgs[path] = nil
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	m.record(files, info)
	m.recordSets(path, files, info)
	return pkg, nil
}

// record notes each package-level declaration's node and every use of
// an object outside the declaration of that object itself, so a
// recursive call or a type named only by its own methods' receivers is
// no caller.
func (m *module) record(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				m.decls[info.Defs[d.Name]] = d
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						m.decls[info.Defs[s.Name]] = s
					case *ast.ValueSpec:
						for _, n := range s.Names {
							m.decls[info.Defs[n]] = s
						}
					}
				}
			}
		}
	}
	for id, obj := range info.Uses {
		obj = origin(obj)
		d, ours := m.decls[obj]
		if !ours || d.Pos() <= id.Pos() && id.Pos() < d.End() || m.inOwnMethod(obj, id.Pos()) {
			continue
		}
		m.used[obj] = true
	}
	for _, tv := range info.Types {
		m.addInterface(tv.Type)
	}
}

func (m *module) inOwnMethod(obj types.Object, pos token.Pos) bool {
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	for _, fn := range methods(tn) {
		if d := m.decls[fn]; d.Pos() <= pos && pos < d.End() {
			return true
		}
	}
	return false
}

// methods are the methods declared on tn, none for an alias.
func methods(tn *types.TypeName) []*types.Func {
	n, ok := tn.Type().(*types.Named)
	if !ok || tn.IsAlias() {
		return nil
	}
	fns := make([]*types.Func, n.NumMethods())
	for i := range fns {
		fns[i] = n.Method(i)
	}
	return fns
}

// origin maps a use of an instantiated generic method or field back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvType is the named type a method is declared on, nil for a func.
func recvType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// exported lists the guarded identifiers in source order: every
// exported package-level object and every exported method of a type
// declared under internal/ or cmd/internal/.
func (m *module) exported() []types.Object {
	var objs []types.Object
	for path, pkg := range m.pkgs {
		if pkg == nil || !(strings.HasPrefix(path, m.path+"/internal/") || strings.HasPrefix(path, m.path+"/cmd/internal/")) {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				objs = append(objs, obj)
			}
			if tn, ok := obj.(*types.TypeName); ok {
				for _, fn := range methods(tn) {
					if fn.Exported() {
						objs = append(objs, fn)
					}
				}
			}
		}
	}
	sort.Slice(objs, func(i, j int) bool {
		a, b := m.fset.Position(objs[i].Pos()), m.fset.Position(objs[j].Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return objs
}

// collectInterfaces gathers every named interface of every package the
// module reaches, the standard library's included, and every interface
// type its own code spells out.
func (m *module) collectInterfaces() {
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				m.addInterface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.pkgs {
		walk(p)
	}
}

func (m *module) addInterface(t types.Type) {
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return
	}
	if i, ok := t.Underlying().(*types.Interface); ok && i.IsMethodSet() && i.NumMethods() > 0 {
		m.ifaces[i] = true
	}
}

// implementsInterface reports whether obj is a method its type needs to
// satisfy some interface that has it. A pointer's method set holds the
// value's, so the pointer stands for both.
func (m *module) implementsInterface(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := recvType(fn)
	if recv == nil {
		return false
	}
	ptr := types.NewPointer(recv.Type())
	for i := range m.ifaces {
		if hasMethod(i, fn.Name()) && types.Implements(ptr, i) {
			return true
		}
	}
	return false
}

func hasMethod(i *types.Interface, name string) bool {
	for k := 0; k < i.NumMethods(); k++ {
		if i.Method(k).Name() == name {
			return true
		}
	}
	return false
}

// key names obj as the allowlist does: pkg.Name, or pkg.Type.Method.
func (m *module) key(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := recvType(fn); recv != nil {
			name += recv.Name() + "."
		}
	}
	return name + obj.Name()
}

// pos is obj's declaration as a module-relative file:line.
func (m *module) pos(obj types.Object) string {
	p := m.fset.Position(obj.Pos())
	rel, err := filepath.Rel(m.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}
