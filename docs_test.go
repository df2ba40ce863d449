package hpop_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goToolFlags are the flags README names that belong to the go command, not
// to a binary of this repo.
var goToolFlags = map[string]bool{"race": true}

// TestReadmeFlagsAreDefined: every flag README names in a code span (`-name`
// or `-name value`) is defined by the flag set of one of the repo's cmd/*
// binaries, so the documentation cannot keep a flag that was renamed or
// deleted.
func TestReadmeFlagsAreDefined(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defined := cmdFlags(t)
	named := map[string]bool{}
	for _, m := range regexp.MustCompile("`-([a-z][a-z0-9-]*)[^`]*`").FindAllStringSubmatch(string(readme), -1) {
		named[m[1]] = true
	}
	if len(named) < 20 {
		t.Fatalf("README names %d flags; the span pattern no longer finds them", len(named))
	}
	var missing []string
	for name := range named {
		if !defined[name] && !goToolFlags[name] {
			missing = append(missing, "-"+name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("README names flags no cmd/* binary defines: %s", strings.Join(missing, ", "))
	}
}

// flagMethods are the flag-defining methods of flag.FlagSet (and the
// package-level functions of the same names); the *Var forms take the
// flag's name as their second argument.
var flagMethods = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1,
	"UintVar": 1, "Uint64Var": 1, "TextVar": 1, "Var": 1,
}

// cmdFlags returns the names of every flag a non-test file under cmd/
// defines: each call of a flag-defining method with a string literal for
// the name.
func cmdFlags(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg, ok := flagMethods[sel.Sel.Name]
			if !ok || len(call.Args) <= arg {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[name] = true
				}
			}
			return true
		})
	}
	if len(flags) < 50 {
		t.Fatalf("found %d flags under cmd/; the parse no longer finds them", len(flags))
	}
	return flags
}
