package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunListsNameDeclaredTests: every name in a `-run '^(A|B)$'` or
// `-run '^A$'` list of the CI workflow is a test, benchmark or fuzz
// target some _test.go file declares. A name that matches nothing makes
// `go test -run` pass silently, so a renamed or deleted test would drop
// out of its CI step unnoticed.
func TestCIRunListsNameDeclaredTests(t *testing.T) {
	root := filepath.Join("..", "..")
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lists := regexp.MustCompile(`-run '\^\(?([^'$)]*)\)?\$'`).FindAllSubmatch(ci, -1)
	if len(lists) == 0 {
		t.Fatal("the workflow has no anchored -run list: the pattern no longer matches how it names tests")
	}
	names := 0
	for _, l := range lists {
		for _, name := range strings.Split(string(l[1]), "|") {
			if name == "" || strings.ContainsAny(name, `.*+?[]\`) {
				continue // a pattern, not a name
			}
			names++
			if !declared[name] {
				t.Errorf("the workflow's -run list names %s, which no _test.go declares", name)
			}
		}
	}
	if names < 100 {
		t.Errorf("read %d names from %d -run lists, want the workflow's hundreds", names, len(lists))
	}
}
