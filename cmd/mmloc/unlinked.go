package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// allowFile is the checked-in allow-list, relative to the module root.
const allowFile = "cmd/mmloc/unlinked.txt"

// modulePrefix is left off the allow-list's symbols and the printed ones.
const modulePrefix = "megammap/internal/"

// reasons are the allow-list's reasons (described in allowFile).
var reasons = map[string]bool{"marker": true, "testpkg": true, "oracle": true,
	"observer": true, "facade": true, "item16": true, "item5b": true}

// unlinked builds every main of the module without inlining and prints
// each func declared under internal/ that none links, with its
// allow-list reason. It reports false when one is not listed, or a
// listed one is linked or no longer declared.
func unlinked() (bool, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	mod := strings.TrimSpace(string(out))
	if err != nil || filepath.Base(mod) != "go.mod" {
		return false, fmt.Errorf("not inside a module (%v)", err)
	}
	root := filepath.Dir(mod)
	raw, err := os.ReadFile(filepath.Join(root, allowFile))
	if err != nil {
		return false, err
	}
	allow, err := parseAllow(string(raw))
	if err != nil {
		return false, fmt.Errorf("%s: %w", allowFile, err)
	}
	linked, err := linkedSymbols(root)
	if err != nil {
		return false, err
	}
	declared, err := declaredSymbols(filepath.Join(root, "internal"), "megammap/internal")
	if err != nil {
		return false, err
	}
	ok := true
	report := func(sym, what string) { fmt.Printf("%-60s %s\n", strings.TrimPrefix(sym, modulePrefix), what) }
	for _, sym := range slices.Sorted(maps.Keys(declared)) {
		if linked[sym] {
			continue
		}
		if r, listed := allow[sym]; listed {
			report(sym, r)
		} else {
			report(sym, "NOT ALLOWED ("+declared[sym]+")")
			ok = false
		}
	}
	for _, sym := range slices.Sorted(maps.Keys(allow)) {
		if _, decl := declared[sym]; !decl {
			report(sym, "STALE: allow-listed but not declared")
		} else if linked[sym] {
			report(sym, "STALE: allow-listed but linked")
		} else {
			continue
		}
		ok = false
	}
	return ok, nil
}

// linkedSymbols builds every main package with -gcflags=all=-l (so a
// called func keeps its symbol) and returns the text symbols of all of
// them, as nmSymbol names them.
func linkedSymbols(root string) (map[string]bool, error) {
	list := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	list.Dir = root
	out, err := list.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	mains := strings.Fields(string(out))
	bin, err := os.MkdirTemp("", "mmloc-unlinked-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(bin)
	cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin + "/"}, mains...)...)
	cmd.Dir, cmd.Stderr = root, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build: %w", err)
	}
	linked := make(map[string]bool)
	for _, m := range mains {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, filepath.Base(m))).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", m, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "<addr> <type> <name>": the name may hold spaces (a generic
			// shape such as "struct { A int }"), so it is the rest.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[nmSymbol(f[2])] = true
			}
		}
	}
	return linked, nil
}

// nmSymbol maps a symbol as go tool nm prints it to the name declSymbol
// gives its declaration: type arguments in brackets are dropped
// ("pkg.(*T[go.shape.int]).M" is "pkg.(*T).M"), and so is an assembly
// function's ".abi0".
func nmSymbol(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range strings.TrimSuffix(s, ".abi0") {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredSymbols maps the symbol of every top-level func in the packages
// under dir, imported under path, to its file and line. It reads the files
// the host's build constraints select, tests left out.
func declaredSymbols(dir, path string) (map[string]string, error) {
	syms := make(map[string]string)
	err := filepath.WalkDir(dir, func(sub string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.Default.ImportDir(sub, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, sub)
		pkgPath := strings.TrimSuffix(path+"/"+filepath.ToSlash(rel), "/.")
		fset := token.NewFileSet()
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(sub, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name != "init" && fd.Name.Name != "_" {
					pos := fset.Position(fd.Pos())
					syms[declSymbol(pkgPath, fd)] = fmt.Sprintf("%s:%d", name, pos.Line)
				}
			}
		}
		return nil
	})
	return syms, err
}

// declSymbol is the linker's name for a func declared in package path:
// "path.F", "path.T.M" or "path.(*T).M", type parameters left out.
func declSymbol(path string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return path + "." + fd.Name.Name
	}
	t, ptr := fd.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, ptr = s.X, true
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	if ptr {
		return path + ".(*" + t.(*ast.Ident).Name + ")." + fd.Name.Name
	}
	return path + "." + t.(*ast.Ident).Name + "." + fd.Name.Name
}

// parseAllow parses the allow-list: one "<symbol> <reason>" a line, the
// symbol without modulePrefix, '#' comments and blank lines ignored.
func parseAllow(text string) (map[string]string, error) {
	allow := make(map[string]string)
	for n, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 2 || !reasons[f[1]] {
			return nil, fmt.Errorf("line %d: want \"<symbol> <reason>\" with a known reason, got %q", n+1, line)
		}
		if _, dup := allow[modulePrefix+f[0]]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", n+1, f[0])
		}
		allow[modulePrefix+f[0]] = f[1]
	}
	return allow, nil
}
