package bgpintent

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// docFiles are the documents TestDocIdentifiersResolve holds to the code.
var docFiles = []string{"DESIGN.md", "README.md"}

// docHistory lists the names the documents may use although no Go source
// spells them any more — the paragraphs that tell what a mechanism
// replaced. One name a line, then what removed it; '#' starts a comment.
const docHistory = "testdata/doc_history.txt"

// TestDocIdentifiersResolve keeps DESIGN.md and README.md from naming code
// that is gone. Every backticked token shaped like a Go identifier — or a
// dotted selector of them, with an optional type-argument or call suffix
// — must name something the module's Go sources (bench/ included)
// declare or select, or be listed in docHistory. A history line whose
// name the code spells again, or the documents no longer use, is
// reported too, so the list only ever holds history.
func TestDocIdentifiersResolve(t *testing.T) {
	names, err := goNames(".")
	if err != nil {
		t.Fatal(err)
	}
	docs := make(map[string]string, len(docFiles))
	for _, name := range docFiles {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(raw)
	}
	raw, err := os.ReadFile(docHistory)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkDocNames(docs, names, parseDocHistory(string(raw))) {
		t.Error(p)
	}
}

// checkDocNames returns one line per document name that resolves neither
// to the code nor to the history, and per stale history line.
func checkDocNames(docs map[string]string, code, history map[string]bool) []string {
	var problems []string
	used := make(map[string]bool)
	files := make([]string, 0, len(docs))
	for name := range docs {
		files = append(files, name)
	}
	sort.Strings(files)
	for _, file := range files {
		reported := make(map[string]bool)
		for _, name := range docIdentifiers(docs[file]) {
			used[name] = true
			if code[name] || history[name] || reported[name] {
				continue
			}
			reported[name] = true
			problems = append(problems, file+": `"+name+"` names nothing in the Go sources; update the text, or list the name in "+docHistory)
		}
	}
	var stale []string
	for name := range history {
		switch {
		case code[name]:
			stale = append(stale, docHistory+": "+name+" is spelled by the Go sources again; drop its line")
		case !used[name]:
			stale = append(stale, docHistory+": no document names "+name+" any more; drop its line")
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

var (
	// codeSpan is one inline code span; it may wrap across lines.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// identShaped is a Go identifier or a dotted selector of them, after
	// an optional pointer star, before an optional [type arguments] and
	// (call arguments) suffix.
	identShaped = regexp.MustCompile(`^\*?([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)(?:\[[^\]]*\])?(?:\(.*\))?$`)
	// goShaped is the part of one that is checked: a name mixing upper
	// and lower case letters, with no underscore. All-lower words are
	// package, command and English words; all-upper ones are acronyms
	// and environment variables; snake case is bgpbench metric names.
	goShaped = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*$`)
)

// docIdentifiers returns the Go-shaped names of a markdown document's
// inline code spans, outside fenced blocks, in order of appearance.
func docIdentifiers(doc string) []string {
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			prose.WriteString("\n")
			continue
		}
		if !fenced {
			prose.WriteString(line)
		}
		prose.WriteString("\n")
	}
	var names []string
	for _, m := range codeSpan.FindAllStringSubmatch(prose.String(), -1) {
		sel := identShaped.FindStringSubmatch(strings.TrimSpace(m[1]))
		if sel == nil {
			continue
		}
		for _, part := range strings.Split(sel[1], ".") {
			if goShaped.MatchString(part) && strings.ToLower(part) != part && strings.ToUpper(part) != part {
				names = append(names, part)
			}
		}
	}
	return names
}

// goNames returns every name the Go files under root declare — package,
// function, method, type, constant, variable, field, parameter and
// short-variable names — or select: the member of any selector
// expression and the field key of any composite literal, which compiled
// code only spells when some package, standard library included,
// declares it. Hidden directories and testdata are skipped.
func goNames(root string) (map[string]bool, error) {
	names := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names[f.Name.Name] = true
		ast.Inspect(f, func(n ast.Node) bool {
			add := func(ids ...*ast.Ident) {
				for _, id := range ids {
					names[id.Name] = true
				}
			}
			switch n := n.(type) {
			case *ast.FuncDecl:
				add(n.Name)
			case *ast.TypeSpec:
				add(n.Name)
			case *ast.ValueSpec:
				add(n.Names...)
			case *ast.Field:
				add(n.Names...)
			case *ast.SelectorExpr:
				add(n.Sel)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					add(id)
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					for _, e := range n.Lhs {
						if id, ok := e.(*ast.Ident); ok {
							add(id)
						}
					}
				}
			case *ast.RangeStmt:
				if n.Tok == token.DEFINE {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok {
							add(id)
						}
					}
				}
			}
			return true
		})
		return nil
	})
	return names, err
}

// parseDocHistory reads docHistory's names.
func parseDocHistory(raw string) map[string]bool {
	names := make(map[string]bool)
	for _, line := range strings.Split(raw, "\n") {
		line, _, _ = strings.Cut(line, "#")
		if fields := strings.Fields(line); len(fields) > 0 {
			names[fields[0]] = true
		}
	}
	return names
}
