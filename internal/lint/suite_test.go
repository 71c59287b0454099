package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anc/internal/lint"
	"anc/internal/lint/load"
	"anc/internal/lint/runner"
)

// TestSuiteAnalyzerRoster is the hand-maintained roster of the suite:
// adding an analyzer means adding it here too, and dropping one from
// Suite() — the easy way to silently lose a whole class of checks —
// fails this test.
func TestSuiteAnalyzerRoster(t *testing.T) {
	want := map[string]bool{
		"nakedexp":       true,
		"floateq":        true,
		"droppederr":     true,
		"determinism":    true,
		"lockdiscipline": true,
		"lockorder":      true,
		"goleak":         true,
		"hotalloc":       true,
	}
	got := map[string]bool{}
	for _, s := range lint.Suite() {
		got[s.Analyzer.Name] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("Suite() lost analyzer %s", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("Suite() has unlisted analyzer %s; add it to the roster", name)
		}
	}
}

// TestSuiteAnalyzesEveryPackage runs the full suite the way cmd/anclint
// does and checks that every non-testdata package of the module was
// actually loaded and analyzed — a scoping or loader regression that
// silently skips packages must not pass CI.
func TestSuiteAnalyzesEveryPackage(t *testing.T) {
	l, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	root := l.ModuleRoot()
	res, err := runner.RunWithOptions(root, []string{"./..."}, lint.Suite(), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	analyzed := map[string]bool{}
	for _, p := range res.Packages {
		analyzed[p] = true
	}

	// Independent ground truth: walk the module tree for every directory
	// holding at least one non-test .go file, skipping testdata trees.
	var missing []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := l.ModulePath()
		if rel != "." {
			imp = imp + "/" + filepath.ToSlash(rel)
		}
		if !analyzed[imp] {
			missing = append(missing, imp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Errorf("anclint ./... did not analyze %d package(s): %v", len(missing), missing)
	}
	if len(res.Findings) != 0 {
		for _, f := range res.Findings {
			t.Errorf("repo not lint-clean: %s", f)
		}
	}
}
