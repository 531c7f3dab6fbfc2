package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServerLinksNoHarness: lshserve links none of the paper's evaluation
// harness (the experiment runner, the SRS and QALSH baselines and their
// trees, the table renderer) and not the fault-injection test substrate.
func TestServerLinksNoHarness(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go tool is not on PATH: %v", err)
	}
	out, err := exec.Command(goTool, "list", "-deps", "e2lshos/cmd/lshserve").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	banned := map[string]bool{}
	for _, p := range []string{"experiments", "qalsh", "srs", "rtree", "bptree", "report", "faultinject"} {
		banned["e2lshos/internal/"+p] = true
	}
	for _, pkg := range strings.Fields(string(out)) {
		if banned[pkg] {
			t.Errorf("lshserve links %s", pkg)
		}
	}
}
