package anc_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists scans the prose a reader acts on — README,
// DESIGN, EXPERIMENTS, the Makefile's comments and the verify skill — for
// the kinds of name that rot when an entry point is deleted: a `make`
// target, an `ancbench -exp` experiment, a benchmark workload, a
// benchmark metric and a results file. Each mention must resolve against the one
// place that defines it (Makefile rules, cmd/ancbench's run(...) calls,
// BENCHMARK.json — which benchmark.TestSpecMatchesJSON holds equal to
// benchmark/spec.go — and the working tree), and a backticked Go name of the
// anc, serve or client package (`pkg.Name` or `pkg.Type.Member`) must be
// declared in that package's non-test sources. Every fuzz-smoke line of the
// Makefile must name a fuzz function its package declares. In the newest CHANGES.md
// entry — the line the next session starts from — a backticked file path
// must exist in the working tree; older entries are history and
// legitimately name files that have since been deleted.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	collect := func(src, pattern string) map[string]bool {
		set := map[string]bool{}
		for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(src, -1) {
			set[m[1]] = true
		}
		return set
	}
	in := func(set map[string]bool) func(string) bool {
		return func(name string) bool { return set[name] }
	}

	makefile := read("Makefile")
	targets := collect(makefile, `(?m)^([a-z][a-z0-9-]*):`)
	experiments := collect(read("cmd/ancbench/main.go"), `\brun\("([a-z0-9]+)"`)
	experiments["all"] = true
	type named struct{ Name string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(read("BENCHMARK.json")), &spec); err != nil {
		t.Fatal(err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}

	// `go test -fuzz` on a name that matches nothing warns and exits 0, so
	// a renamed target would leave fuzz-smoke green while fuzzing nothing.
	fuzz := regexp.MustCompile(`(?m)^\t\$\(GO\) test (\S+) .*-fuzz '\^(\w+)\$\$'`).FindAllStringSubmatch(makefile, -1)
	for _, m := range fuzz {
		files, _ := filepath.Glob(m[1] + "/*_test.go")
		src := ""
		for _, file := range files {
			src += read(file)
		}
		if !strings.Contains(src, "func "+m[2]+"(f *testing.F)") {
			t.Errorf("Makefile fuzz-smoke names %s in %s, which declares no such fuzz target", m[2], m[1])
		}
	}

	// declared holds pkg.Name for every top-level declaration and
	// pkg.Type.Member for every method and named struct field of the three
	// packages the docs name Go identifiers from. A promoted member is
	// named on the type that declares it.
	declared := map[string]bool{}
	for pkg, dir := range map[string]string{"anc": ".", "serve": "internal/serve", "client": "internal/serve/client"} {
		files, _ := filepath.Glob(dir + "/*.go")
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						recv := d.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						name = recv.(*ast.Ident).Name + "." + name
					}
					declared[pkg+"."+name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							declared[pkg+"."+sp.Name.Name] = true
							if st, ok := sp.Type.(*ast.StructType); ok {
								for _, field := range st.Fields.List {
									for _, n := range field.Names {
										declared[pkg+"."+sp.Name.Name+"."+n.Name] = true
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								declared[pkg+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
	}

	if len(targets) == 0 || len(experiments) < 2 || len(workloads) == 0 || len(metrics) == 0 || len(fuzz) == 0 || len(declared) == 0 {
		t.Fatalf("empty name table: %d targets, %d experiments, %d workloads, %d metrics, %d fuzz targets, %d Go names",
			len(targets), len(experiments), len(workloads), len(metrics), len(fuzz), len(declared))
	}

	var comments []string
	for _, line := range strings.Split(makefile, "\n") {
		if strings.HasPrefix(line, "#") {
			comments = append(comments, line)
		}
	}
	docs := map[string]string{
		"README.md":                      read("README.md"),
		"DESIGN.md":                      read("DESIGN.md"),
		"EXPERIMENTS.md":                 read("EXPERIMENTS.md"),
		"Makefile":                       strings.Join(comments, "\n"),
		".claude/skills/verify/SKILL.md": read(".claude/skills/verify/SKILL.md"),
	}
	changes := strings.Split(strings.TrimSpace(read("CHANGES.md")), "\n")
	newest := changes[len(changes)-1]
	// A path is backticked, has a directory part and a source or data
	// extension; a trailing :line is allowed. An absolute path is outside
	// the repository by definition.
	for _, m := range regexp.MustCompile("`(/?(?:[\\w.-]+/)+[\\w.-]+\\.(?:go|md|json|jsonl|sh|txt|yml))(?::\\d+)?`").FindAllStringSubmatch(newest, -1) {
		if _, err := os.Stat(m[1]); err != nil || strings.HasPrefix(m[1], "/") || strings.Contains(m[1], "..") {
			t.Errorf("CHANGES.md (newest entry) names file %q, which does not exist in the repository", m[1])
		}
	}

	for _, kind := range []struct {
		what     string
		mention  string // first group is the name, comma-separated where the flag allows it
		resolves func(string) bool
	}{
		{"make target", "(?m)(?:`|^\\s*)make\\s+(?:#\\s+)?([a-z][a-z0-9-]*)", in(targets)},
		{"ancbench experiment", `-exp[ =]([a-z0-9,]+)`, in(experiments)},
		{"benchmark workload", `-workload[ =]([a-z][a-z0-9-]*)`, in(workloads)},
		// Backticked, shaped like a metric: layer.words_with_underscores,
		// or words ending in a unit the end-to-end table uses.
		{"benchmark metric", "`([a-z]+\\.[a-z0-9]+_[a-z0-9_]+|[a-z]+(?:_[a-z0-9]+)*_(?:s|ms|us|mb|share))`", in(metrics)},
		{"Go name", "`((?:anc|serve|client)\\.[A-Z]\\w*(?:\\.[A-Z]\\w*)?)", in(declared)},
		{"results file", `\b(BENCH_\w*(?:\.json)?|bench_results\w*(?:\.txt)?)`, func(name string) bool {
			_, err := os.Stat(name)
			return err == nil
		}},
	} {
		re := regexp.MustCompile(kind.mention)
		for file, text := range docs {
			for _, m := range re.FindAllStringSubmatch(text, -1) {
				for _, name := range strings.Split(m[1], ",") {
					if !kind.resolves(name) {
						t.Errorf("%s names %s %q, which does not exist", file, kind.what, name)
					}
				}
			}
		}
	}
}
