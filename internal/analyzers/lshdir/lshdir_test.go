package lshdir

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const src = `package p

//lsh:hotpath
func hot() {}

// Doc text first.
//lsh:ctxok runs to completion
func fold() {}

func plain() {}

//lsh:ladder

func detached() {}

type s struct {
	a int //lsh:guardedby mu
	b int
}
`

const trailingSrc = `package p

type t struct {
	a int //lsh:guardedby mu
	b int
}
`

func TestAssociation(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	m := Parse(fset, f)

	if got := len(m.All()); got != 4 {
		t.Fatalf("parsed %d directives, want 4", got)
	}
	decls := f.Decls
	if !m.Covers("hotpath", decls[0]) {
		t.Error("hotpath directive not associated with hot()")
	}
	d, ok := m.Get("ctxok", decls[1])
	if !ok || d.Args != "runs to completion" {
		t.Errorf("ctxok on fold() = %+v, %v; want Args %q", d, ok, "runs to completion")
	}
	if m.Covers("hotpath", decls[2]) || m.Covers("ctxok", decls[2]) {
		t.Error("plain() should carry no directives")
	}
	if m.Covers("ladder", decls[3]) {
		t.Error("blank line must break directive association")
	}

	// Trailing field directive.
	found := false
	for _, d := range m.All() {
		if d.Name == "guardedby" && d.Args == "mu" {
			found = true
		}
	}
	if !found {
		t.Error("trailing guardedby directive not parsed")
	}
}

// A trailing directive binds only to its own line: the field below an
// annotated field must not inherit the annotation doc-style.
func TestTrailingDoesNotBindBelow(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", trailingSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	m := Parse(fset, f)
	st := f.Decls[0].(*ast.GenDecl).Specs[0].(*ast.TypeSpec).Type.(*ast.StructType)
	if !m.Covers("guardedby", st.Fields.List[0]) {
		t.Error("trailing directive must cover its own field")
	}
	if m.Covers("guardedby", st.Fields.List[1]) {
		t.Error("trailing directive must not cover the next field")
	}
}
