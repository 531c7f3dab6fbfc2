// Command lshlint is the repo's invariant checker: a multichecker over
// the four custom analyzers that enforce cancellation discipline
// (ctxladder), allocation-free hot paths (hotpathalloc), mutex
// annotations (guardedby) and handled block I/O errors (ioerr).
//
// Usage:
//
//	go run ./cmd/lshlint ./...
//
// Findings print as file:line:col: [analyzer] message and make the
// process exit 1; CI runs it as a gated job. See DESIGN.md "Invariants
// & enforcement" for the annotation language (//lsh:hotpath,
// //lsh:ladder, //lsh:guardedby and the per-line suppressions //lsh:allocok, //lsh:ctxok, //lsh:nolock,
// //lsh:errok).
package main

import (
	"e2lshos/internal/analysis"
	"e2lshos/internal/analyzers/ctxladder"
	"e2lshos/internal/analyzers/guardedby"
	"e2lshos/internal/analyzers/hotpathalloc"
	"e2lshos/internal/analyzers/ioerr"
)

func main() {
	analysis.Main(
		ctxladder.Analyzer,
		guardedby.Analyzer,
		hotpathalloc.Analyzer,
		ioerr.Analyzer,
	)
}
