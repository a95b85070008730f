package bgpintent

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciWorkflow is the CI definition TestCIWorkflowSelectorsResolve reads.
const ciWorkflow = ".github/workflows/ci.yml"

// TestCIWorkflowSelectorsResolve keeps the CI workflow honest about the
// tests it names. `go test -run X` exits 0 with "no tests to run" when X
// matches nothing, so a renamed test would silently drop out of every
// step that selects it; a step name holding ": " unquoted does not parse
// as YAML, so the whole workflow would run nothing. For every `go test`
// in the workflow, each `|` alternative of its -run pattern (and its
// -fuzz pattern) must match a Test or Fuzz function in the packages the
// command names, and every step name containing ": " must be quoted.
func TestCIWorkflowSelectorsResolve(t *testing.T) {
	raw, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkCIWorkflow(string(raw)) {
		t.Error(p)
	}
}

// checkCIWorkflow returns one line per problem found in a workflow whose
// package paths are relative to the working directory.
func checkCIWorkflow(workflow string) []string {
	var problems []string
	funcs := make(map[string][]string) // package directory -> its Test/Fuzz functions
	step := ""
	selectors := 0
	for _, line := range strings.Split(workflow, "\n") {
		trimmed := strings.TrimSpace(line)
		if name, ok := strings.CutPrefix(trimmed, "- name:"); ok {
			step = strings.TrimSpace(name)
			if strings.Contains(step, ": ") && !strings.HasPrefix(step, "'") && !strings.HasPrefix(step, `"`) {
				problems = append(problems, "step name holds an unquoted \": \": "+step)
			}
			continue
		}
		i := strings.Index(trimmed, "go test ")
		if i < 0 || strings.HasPrefix(trimmed, "#") {
			continue
		}
		cmd := parseGoTest(trimmed[i+len("go test "):])
		if cmd.run == "" && cmd.fuzz == "" {
			continue
		}
		selectors++
		var names []string
		for _, pkg := range cmd.pkgs {
			for _, dir := range packageDirs(filepath.Join(cmd.dir, pkg)) {
				if _, ok := funcs[dir]; !ok {
					funcs[dir] = testFuncs(dir)
				}
				names = append(names, funcs[dir]...)
			}
		}
		patterns := splitAlternatives(cmd.run)
		if cmd.fuzz != "" {
			// -run only keeps the unit tests out of a fuzz run; the target
			// is what the step selects.
			patterns = []string{cmd.fuzz}
		}
		for _, alt := range patterns {
			re, err := regexp.Compile(alt)
			if err != nil {
				problems = append(problems, step+": bad pattern "+alt+": "+err.Error())
				continue
			}
			if !anyMatch(re, names) {
				problems = append(problems, step+": "+alt+" matches no Test or Fuzz function in "+strings.Join(cmd.pkgs, " "))
			}
		}
	}
	if selectors == 0 {
		problems = append(problems, "no go test command selects tests by name: the parse found nothing to check")
	}
	return problems
}

// goTestCmd is what checkCIWorkflow needs of one `go test` command line.
type goTestCmd struct {
	dir       string // -C
	run, fuzz string
	pkgs      []string
}

// parseGoTest reads the arguments after `go test`, up to the end of the
// shell command.
func parseGoTest(args string) goTestCmd {
	cmd := goTestCmd{dir: "."}
	words := shellWords(args)
	for i := 0; i < len(words); i++ {
		w := words[i]
		if !strings.HasPrefix(w, "-") {
			cmd.pkgs = append(cmd.pkgs, w)
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(w, "-"), "=")
		switch name {
		case "run", "fuzz", "fuzztime", "C", "count", "timeout", "parallel", "cpu", "tags", "bench", "benchtime":
			if !hasVal && i+1 < len(words) {
				i++
				val = words[i]
			}
		}
		switch name {
		case "run":
			cmd.run = val
		case "fuzz":
			cmd.fuzz = val
		case "C":
			cmd.dir = val
		}
	}
	if len(cmd.pkgs) == 0 {
		cmd.pkgs = []string{"."}
	}
	return cmd
}

// shellWords splits a command line into words the way sh would for the
// simple lines a workflow holds: single or double quotes group, and the
// command ends at a control operator or a comment.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case strings.IndexByte(";&|>#", c) >= 0:
			i = len(s)
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// splitAlternatives splits a regexp at its top-level '|'.
func splitAlternatives(re string) []string {
	if re == "" {
		return nil
	}
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, re[start:])
}

// packageDirs expands a package pattern — a directory, or one ending in
// "/..." — to the directories it names.
func packageDirs(pattern string) []string {
	root, recursive := strings.CutSuffix(filepath.ToSlash(pattern), "/...")
	if !recursive {
		return []string{filepath.Clean(root)}
	}
	var dirs []string
	filepath.WalkDir(filepath.Clean(root), func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			dirs = append(dirs, path)
		}
		return err
	})
	return dirs
}

// testFuncs returns the Test and Fuzz functions declared in a
// directory's test files.
func testFuncs(dir string) []string {
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		parsed, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		for _, decl := range parsed.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
