package transport

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"strings"
	"testing"
)

// TestValueBodiesAreBinary: every RPC body whose type holds a value.Value
// has a binary form. A Value keeps its number in an unexported field, so
// writeFrame's JSON fallback would send it without the number; a body that
// reached it would lose data silently. The test type-checks the package's
// own source and collects every type that becomes a body: the argument
// each handler decodes, what each handler returns, and what the client
// passes to its call functions as argument or reply target. Each one that
// holds a Value, directly or through pointers, slices, maps, arrays or
// struct fields, must be a case of both appendBinaryBody and
// readBinaryBody.
func TestValueBodiesAreBinary(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["transport"].Files {
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("dmv/internal/transport", fset, files, info); err != nil {
		t.Fatal(err)
	}

	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[info.Defs[fd.Name]] = fd
			}
		}
	}
	var bodies []types.Type
	add := func(x ast.Expr) {
		if tv, ok := info.Types[x]; ok && !types.IsInterface(tv.Type) {
			bodies = append(bodies, tv.Type)
		}
	}
	// returns adds the type of every value fn returns, outside nested
	// function literals.
	returns := func(body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					add(r)
				}
			}
			return true
		})
	}
	// The position of the body arguments of each function a body passes
	// through on the client side.
	clientArgs := map[string][]int{"call": {1, 2}, "callOnce": {1, 2}, "callIdem": {1, 2}, "fetch": {2}}
	handlers := 0
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name *ast.Ident
			switch fn := ast.Unparen(c.Fun).(type) {
			case *ast.Ident:
				name = fn
			case *ast.SelectorExpr:
				name = fn.Sel
			case *ast.IndexExpr: // fetch[T]
				if id, ok := fn.X.(*ast.Ident); ok {
					name = id
				}
			}
			if name == nil {
				return true
			}
			if name.Name == "handle" && len(c.Args) == 3 {
				handlers++
				inst := info.Instances[name]
				bodies = append(bodies, types.NewPointer(inst.TypeArgs.At(0)))
				switch h := ast.Unparen(c.Args[2]).(type) {
				case *ast.FuncLit:
					returns(h.Body)
				case *ast.SelectorExpr: // a method expression
					fd := decls[info.Selections[h].Obj()]
					if fd == nil {
						t.Fatalf("%s: handler %s has no declaration", fset.Position(h.Pos()), h.Sel.Name)
					}
					returns(fd.Body)
				default:
					t.Fatalf("%s: unrecognized handler form %T", fset.Position(h.Pos()), h)
				}
			}
			for _, i := range clientArgs[name.Name] {
				if i < len(c.Args) {
					add(c.Args[i])
				}
			}
			return true
		})
	}

	if handlers < 20 {
		t.Fatalf("found %d handle calls; the analysis no longer sees the server's handlers", handlers)
	}

	// cases returns the types of fn's type-switch cases.
	cases := func(fn string) []types.Type {
		var out []types.Type
		for obj, fd := range decls {
			if obj.Name() != fn {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, x := range cc.List {
						out = append(out, info.Types[x].Type)
					}
				}
				return true
			})
		}
		return out
	}
	has := func(ts []types.Type, t types.Type) bool {
		for _, u := range ts {
			if types.Identical(u, t) {
				return true
			}
		}
		return false
	}
	enc, dec := cases("appendBinaryBody"), cases("readBinaryBody")
	held := map[string]bool{}
	for _, b := range bodies {
		if !holdsValue(b, map[types.Type]bool{}) {
			continue
		}
		held[b.String()] = true
		if !has(enc, b) || !has(dec, b) {
			t.Errorf("RPC body %s holds a value.Value but has no binary form (in appendBinaryBody: %v, in readBinaryBody: %v)",
				b, has(enc, b), has(dec, b))
		}
	}
	// The bodies known to carry rows, so an analysis that stops finding
	// bodies fails instead of passing.
	for _, want := range []string{
		"*dmv/internal/transport.ExecArgs",
		"*dmv/internal/transport.ExecReply",
		"*dmv/internal/heap.WriteSet",
		"*[]dmv/internal/page.Image",
		"*dmv/internal/transport.Reply[[]dmv/internal/page.Image]",
	} {
		if !held[want] {
			t.Errorf("no RPC body of type %s found; found %v", want, held)
		}
	}
}

// holdsValue reports whether a value of type t can hold a value.Value.
func holdsValue(t types.Type, seen map[types.Type]bool) bool {
	switch u := types.Unalias(t).(type) {
	case *types.Named:
		if o := u.Obj(); o.Pkg() != nil && o.Pkg().Path() == "dmv/internal/value" && o.Name() == "Value" {
			return true
		}
		if seen[u] {
			return false
		}
		seen[u] = true
		return holdsValue(u.Underlying(), seen)
	case *types.Pointer:
		return holdsValue(u.Elem(), seen)
	case *types.Slice:
		return holdsValue(u.Elem(), seen)
	case *types.Array:
		return holdsValue(u.Elem(), seen)
	case *types.Map:
		return holdsValue(u.Key(), seen) || holdsValue(u.Elem(), seen)
	case *types.Chan:
		return holdsValue(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsValue(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
