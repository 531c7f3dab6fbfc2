package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"e2lshos/internal/experiments"
)

func TestListPrintsExperimentIDs(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out); code != 0 {
		t.Fatalf("lshbench -list exited %d", code)
	}
	if got := strings.Fields(out.String()); !slices.Equal(got, experiments.IDs()) {
		t.Errorf("lshbench -list printed %v, want %v", got, experiments.IDs())
	}
}

// TestMaxNClampsMinN: a -maxn under the harness's default MinN lowers MinN
// with it, so small runs generate datasets of exactly -maxn objects.
func TestMaxNClampsMinN(t *testing.T) {
	o, err := parseFlags([]string{"-maxn", "2000"})
	if err != nil {
		t.Fatal(err)
	}
	if env := o.env(); env.MinN != 2000 || env.MaxN != 2000 {
		t.Errorf("-maxn 2000: MinN %d, MaxN %d, want both 2000", env.MinN, env.MaxN)
	}
}
