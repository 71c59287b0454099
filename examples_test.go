package anc

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestExamplesRun builds every program under examples/ and runs each one
// under a deadline, so an example that stops compiling, fails or hangs
// fails here rather than in a reader's terminal. Each finishes in well
// under a second on a 2-core machine.
func TestExamplesRun(t *testing.T) {
	dirs, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	bin := t.TempDir()
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, main := range dirs {
		name := filepath.Base(filepath.Dir(main))
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(bin, name)
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("the build left no %s binary: %v", name, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, path)
			cmd.Dir = t.TempDir() // an example that writes files writes them here
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%s: %v (deadline hit: %v)\n%s", name, err, ctx.Err() != nil, out)
			}
		})
	}
}
