package nocdn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// docRoute matches one route line of a Handler doc comment:
// "GET  /accounting?peer=ID  -> ..." yields "/accounting?peer=ID".
var docRoute = regexp.MustCompile(`^\s*(?:GET|POST)\s+(/\S*)`)

// TestHandlerDocsListMountedRoutes holds each Handler's doc comment — the
// repo's HTTP-surface table — to the routes the Handler mounts: the string
// literals passed to mux.HandleFunc, parsed from the source. A documented
// path with an upper-case placeholder segment (/content/PATH) stands for the
// subtree pattern mounted at its prefix (/content/).
func TestHandlerDocsListMountedRoutes(t *testing.T) {
	for file, recv := range map[string]string{"origin.go": "Origin", "peer.go": "Peer"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		var handler *ast.FuncDecl
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "Handler" && fn.Recv != nil &&
				recvType(fn.Recv) == "*"+recv {
				handler = fn
			}
		}
		if handler == nil {
			t.Fatalf("%s: no (*%s).Handler", file, recv)
		}

		var documented []string
		for _, line := range strings.Split(handler.Doc.Text(), "\n") {
			if m := docRoute.FindStringSubmatch(line); m != nil {
				documented = append(documented, mountPattern(m[1]))
			}
		}
		var mounted []string
		ast.Inspect(handler.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "HandleFunc" && len(call.Args) > 0 {
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					route, _ := strconv.Unquote(lit.Value)
					mounted = append(mounted, route)
				}
			}
			return true
		})
		for _, r := range mounted {
			if !slices.Contains(documented, r) {
				t.Errorf("%s: (*%s).Handler mounts %s, its doc comment does not list it", file, recv, r)
			}
		}
		for _, r := range documented {
			if !slices.Contains(mounted, r) {
				t.Errorf("%s: (*%s).Handler doc comment lists %s, the handler does not mount it", file, recv, r)
			}
		}
	}
}

// recvType renders a method receiver's type: "*Origin".
func recvType(recv *ast.FieldList) string {
	if star, ok := recv.List[0].Type.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return "*" + id.Name
		}
	}
	return ""
}

// mountPattern turns a documented path into the ServeMux pattern that
// serves it: the query is dropped, and a path through an upper-case
// placeholder segment is the subtree at the segment's parent.
func mountPattern(doc string) string {
	path, _, _ := strings.Cut(doc, "?")
	segs := strings.Split(path, "/")
	for i, seg := range segs {
		if seg != "" && seg == strings.ToUpper(seg) && strings.ToLower(seg) != seg {
			return strings.Join(segs[:i], "/") + "/"
		}
	}
	return path
}
