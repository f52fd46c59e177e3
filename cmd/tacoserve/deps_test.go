package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServerLeavesToolingOut pins the runtime/tooling boundary: the server
// binary may not link the paper harness or its table printer. Tooling may
// depend on the runtime, never the reverse.
func TestServerLeavesToolingOut(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	out, err := exec.Command(gobin, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	if len(deps) == 0 {
		t.Fatal("go list -deps named no packages")
	}
	for _, dep := range deps {
		switch dep {
		case "taco/internal/experiments", "taco/internal/stats":
			t.Errorf("cmd/tacoserve imports %s", dep)
		}
	}
}
