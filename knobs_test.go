package pano_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// knobAllowlist names, as pkg.Type.Field, the config fields that no
// non-test code outside their own package sets and that stay anyway.
// Class is (a), (e) or (f) of allowClasses.
var knobAllowlist = map[string]allowed{
	"provider.Config.Encoder": {"f", "benchmark/encode.go times the kernels of DefaultConfig().Encoder"},
	"provider.Config.Tiles":   {"f", "benchmark/encode.go sizes its tiling probe by DefaultConfig().Tiles"},
	"sim.Config.Controller":   {"a", "DESIGN.md's BenchmarkAblationController runs sim sessions under BOLA, the alternative Controller"},
	"sim.Config.FieldCache":   {"a", "README.md's JND field cache example sets SimConfig.FieldCache"},
	"swarm.Config.Fetch":      {"f", "benchmark/swarm.go sets its HedgeDelay, a write to a field of Fetch, which does not set Fetch"},
	"swarm.Config.Obs":        {"a", "README.md's swarm example passes a registry for the pano_swarm_* metrics"},
}

// knobSuffixes are the endings of the struct type names the knob guard
// reads as configuration.
var knobSuffixes = []string{"Config", "Policy", "Options", "Opts"}

// TestEveryKnobIsSet fails on each exported field of an exported
// *Config, *Policy, *Options or *Opts struct declared under internal/ or
// cmd/internal/ that no non-test file outside the declaring package
// sets. A field is set where it is a composite-literal key (or the
// position of an unkeyed element), an assignment target, or an inc/dec
// operand; a write to one of its own fields does not set it. A field
// only its own package writes, its withDefaults included, has exactly
// one value in the program: make it a constant. Writes through pano.go's
// aliases and from benchmark/, cmd/ and examples/ count.
func TestEveryKnobIsSet(t *testing.T) {
	m := loadModule(t)
	seen := map[string]bool{}
	for _, k := range m.knobs() {
		f, key := k.field, k.key
		seen[key] = true
		a, listed := knobAllowlist[key]
		set := m.setOutside(f)
		switch {
		case listed && set:
			t.Errorf("%s: %s is allowlisted but non-test code outside %s sets it; drop it from knobAllowlist", m.pos(f), key, f.Pkg().Name())
		case listed:
			if testing.Verbose() {
				t.Logf("allowed %s (%s: %s): %s", key, a.class, allowClasses[a.class], a.why)
			}
		case !set:
			t.Errorf("%s: %s is a config field that no non-test code outside %s sets; make it a constant or allowlist it", m.pos(f), key, f.Pkg().Name())
		}
	}
	if testing.Verbose() {
		t.Logf("%d exported config fields, %d allowlisted", len(seen), len(knobAllowlist))
	}
	for key, a := range knobAllowlist {
		if !seen[key] {
			t.Errorf("knobAllowlist names %s, which is not an exported config field under internal/ or cmd/internal/", key)
		}
		if !a.in("aef") {
			t.Errorf("knobAllowlist %s: want a class in (a), (e), (f) and a one-line reason, got %q %q", key, a.class, a.why)
		}
	}
}

// knob is one guarded field and its allowlist key, pkg.Type.Field.
type knob struct {
	field *types.Var
	key   string
}

// knobs lists the guarded fields in source order.
func (m *module) knobs() []knob {
	var fields []knob
	for path, pkg := range m.pkgs {
		if pkg == nil || !(strings.HasPrefix(path, m.path+"/internal/") || strings.HasPrefix(path, m.path+"/cmd/internal/")) {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !hasKnobSuffix(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields = append(fields, knob{f, pkg.Name() + "." + name + "." + f.Name()})
				}
			}
		}
	}
	sort.Slice(fields, func(i, j int) bool {
		a, b := m.fset.Position(fields[i].field.Pos()), m.fset.Position(fields[j].field.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return fields
}

func hasKnobSuffix(name string) bool {
	for _, s := range knobSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// setOutside reports whether a package other than f's own writes f.
func (m *module) setOutside(f *types.Var) bool {
	for path := range m.sets[f] {
		if path != f.Pkg().Path() {
			return true
		}
	}
	return false
}

// recordSets notes, for every struct field the files of package path
// write, that path writes it.
func (m *module) recordSets(path string, files []*ast.File, info *types.Info) {
	set := func(v *types.Var) {
		v = v.Origin()
		if m.sets[v] == nil {
			m.sets[v] = map[string]bool{}
		}
		m.sets[v][path] = true
	}
	// target marks the field an lvalue selects, if it selects one.
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				set(v)
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				tv, ok := info.Types[n]
				if !ok {
					return true
				}
				st, ok := tv.Type.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, e := range n.Elts {
					kv, keyed := e.(*ast.KeyValueExpr)
					if !keyed {
						set(st.Field(i))
						continue
					}
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						set(v)
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						target(l)
					}
				}
			case *ast.IncDecStmt:
				target(n.X)
			}
			return true
		})
	}
}
