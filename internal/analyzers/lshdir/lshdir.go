// Package lshdir parses the repo's `//lsh:` directive comments, the
// annotation language the lshlint analyzers enforce:
//
//	//lsh:hotpath            function must not allocate   (hotpathalloc)
//	//lsh:ladder             loop must poll ctx each turn  (ctxladder)
//	//lsh:guardedby mu       field needs the named mutex   (guardedby)
//	//lsh:allocok reason     suppress one hotpathalloc hit
//	//lsh:ctxok reason       suppress one ctxladder hit
//	//lsh:nolock reason      suppress one guardedby hit
//
// A directive applies to a node when its comment group ends on the line
// directly above the node (doc-comment style) or when the directive
// shares the node's line (trailing style). A blank line between comment
// and node breaks the association, exactly like Go doc comments. A
// trailing directive — one with code before it on its own line — binds
// only to that line's node, never doc-style to the node below it.
package lshdir

import (
	"go/ast"
	"go/token"
	"strings"
)

const prefix = "//lsh:"

// A Directive is one parsed //lsh: comment.
type Directive struct {
	Pos  token.Pos
	Name string // e.g. "hotpath", "guardedby"
	Args string // trailing text, e.g. the mutex name or a reason

	line     int  // line the directive comment itself is on
	groupEnd int  // last line of the enclosing comment group
	trailing bool // code precedes the comment on its line
}

// A Map indexes every directive of one file for position queries.
type Map struct {
	fset *token.FileSet
	all  []Directive
}

// Parse extracts the directives of one parsed file (which must have
// been parsed with parser.ParseComments).
func Parse(fset *token.FileSet, f *ast.File) *Map {
	m := &Map{fset: fset}

	// First position of non-comment code on each line, to tell trailing
	// comments (code before them) from doc comments (alone on the line).
	codeStart := make(map[int]token.Pos)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.Comment); ok {
			return false
		}
		if _, ok := n.(*ast.CommentGroup); ok {
			return false
		}
		line := fset.Position(n.Pos()).Line
		if p, ok := codeStart[line]; !ok || n.Pos() < p {
			codeStart[line] = n.Pos()
		}
		return true
	})

	for _, cg := range f.Comments {
		groupEnd := fset.Position(cg.End()).Line
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, prefix)
			if !ok {
				continue
			}
			name, args, _ := strings.Cut(text, " ")
			line := fset.Position(c.Pos()).Line
			p, hasCode := codeStart[line]
			m.all = append(m.all, Directive{
				Pos:      c.Pos(),
				Name:     name,
				Args:     strings.TrimSpace(args),
				line:     line,
				groupEnd: groupEnd,
				trailing: hasCode && p < c.Pos(),
			})
		}
	}
	return m
}

// On returns the directives named name that apply to node n: trailing
// directives on n's starting line plus doc-style directives whose
// comment group ends on the line above it.
func (m *Map) On(name string, n ast.Node) []Directive {
	if m == nil || n == nil {
		return nil
	}
	line := m.fset.Position(n.Pos()).Line
	var out []Directive
	for _, d := range m.all {
		if d.Name != name {
			continue
		}
		if d.line == line || (!d.trailing && d.groupEnd == line-1) {
			out = append(out, d)
		}
	}
	return out
}

// Covers reports whether at least one directive named name applies to n.
func (m *Map) Covers(name string, n ast.Node) bool {
	return len(m.On(name, n)) > 0
}

// Get returns the first directive named name applying to n, if any.
func (m *Map) Get(name string, n ast.Node) (Directive, bool) {
	ds := m.On(name, n)
	if len(ds) == 0 {
		return Directive{}, false
	}
	return ds[0], true
}

// All returns every directive in the file, in source order.
func (m *Map) All() []Directive { return m.all }
