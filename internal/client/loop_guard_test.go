package client

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"strconv"
	"strings"
	"testing"
)

// watchPackages are the packages a session's metrics, spans and events
// come from; only its watcher may name them.
var watchPackages = map[string]bool{"pano/internal/obs": true, "pano/internal/trace": true, "log/slog": true}

// TestSessionLoopNamesNoInstrument holds RunSession to deciding: its body
// selects nothing from obs, trace or log/slog, reads no StreamConfig
// field whose type is theirs (Obs, Log, Trace) and spells no metric name
// (a string literal beginning "pano_"). Whatever the session emits goes
// through its watcher (watch.go), which takes the config whole.
func TestSessionLoopNamesNoInstrument(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "client.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]string{} // local import name -> path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if !watchPackages[p] {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		banned[name] = p
	}
	var loop *ast.FuncDecl
	instruments := map[string]bool{} // StreamConfig's fields of a watch package's type
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.Name == "RunSession" {
				loop = d
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				ts, ok := sp.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "StreamConfig" {
					continue
				}
				for _, fld := range ts.Type.(*ast.StructType).Fields.List {
					if pkg := typePackage(fld.Type); banned[pkg] != "" {
						for _, n := range fld.Names {
							instruments[n.Name] = true
						}
					}
				}
			}
		}
	}
	if loop == nil {
		t.Fatal("client.go declares no RunSession")
	}
	if len(instruments) == 0 {
		t.Fatal("client.go's StreamConfig has no field of an obs, trace or log/slog type")
	}
	configs := map[string]bool{} // RunSession's StreamConfig parameters
	for _, fld := range loop.Type.Params.List {
		if typeName(fld.Type) == "StreamConfig" {
			for _, n := range fld.Names {
				configs[n.Name] = true
			}
		}
	}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			x, ok := n.X.(*ast.Ident)
			switch {
			case ok && x.Obj == nil && banned[x.Name] != "":
				t.Errorf("%s: RunSession selects %s.%s from %s", fset.Position(n.Pos()), x.Name, n.Sel.Name, banned[x.Name])
			case ok && configs[x.Name] && instruments[n.Sel.Name]:
				t.Errorf("%s: RunSession reads %s.%s; its watcher owns it", fset.Position(n.Pos()), x.Name, n.Sel.Name)
			}
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && strings.HasPrefix(s, "pano_") {
				t.Errorf("%s: RunSession names metric %q", fset.Position(n.Pos()), s)
			}
		}
		return true
	})
}

// typePackage returns the package name a field type such as *obs.Registry
// or obs.Registry selects from, "" for any other type.
func typePackage(e ast.Expr) string {
	if st, ok := e.(*ast.StarExpr); ok {
		e = st.X
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok {
			return x.Name
		}
	}
	return ""
}

// typeName returns the name of a local type such as StreamConfig or
// *StreamConfig, "" for any other type.
func typeName(e ast.Expr) string {
	if st, ok := e.(*ast.StarExpr); ok {
		e = st.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
