package aujoin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// goDecls is what the repository's Go files declare, read with go/parser.
type goDecls struct {
	idents  map[string]bool            // every identifier in code (not in comments)
	pkgs    map[string]map[string]bool // package name → its top-level declarations
	members map[string]map[string]bool // type name → its fields and methods
	embeds  map[string][]string        // type name → the types it embeds
	stdlib  map[string]bool            // names of the standard-library packages imported
	tests   map[string][]string        // directory → its Test, Example and Fuzz functions
	notes   map[string]string          // Go file → the text of its comments
	lits    map[string]string          // Go file → its string literals, unquoted, one a line
}

func parseRepo(t *testing.T) *goDecls {
	t.Helper()
	d := &goDecls{
		idents: map[string]bool{}, pkgs: map[string]map[string]bool{},
		members: map[string]map[string]bool{}, embeds: map[string][]string{},
		stdlib: map[string]bool{}, tests: map[string][]string{}, notes: map[string]string{},
		lits: map[string]string{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		d.add(f, filepath.Dir(path), strings.HasSuffix(path, "_test.go"))
		var notes strings.Builder
		for _, c := range f.Comments {
			notes.WriteString(c.Text())
		}
		d.notes[path] = notes.String()
		var lits strings.Builder
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, _ := strconv.Unquote(lit.Value) // the parser accepted it, so it unquotes
				lits.WriteString(s + "\n")
			}
			return true
		})
		d.lits[path] = lits.String()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *goDecls) member(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
}

func (d *goDecls) add(f *ast.File, dir string, testFile bool) {
	top := d.pkgs[f.Name.Name]
	if top == nil {
		top = map[string]bool{}
		d.pkgs[f.Name.Name] = top
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if !strings.Contains(strings.Split(path, "/")[0], ".") {
			d.stdlib[filepath.Base(path)] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			d.idents[id.Name] = true
		}
		return true
	})
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				top[decl.Name.Name] = true
				if testFile && isTestFunc(decl.Name.Name) {
					d.tests[dir] = append(d.tests[dir], decl.Name.Name)
				}
				continue
			}
			top[decl.Name.Name] = true // docs write pkg.Method for a method of a type in pkg
			d.member(recvType(decl.Recv.List[0].Type), decl.Name.Name)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					top[spec.Name.Name] = true
					d.addType(spec.Name.Name, spec.Type)
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						top[n.Name] = true
					}
				}
			}
		}
	}
}

// isTestFunc reports whether a function is one go test -run selects.
func isTestFunc(name string) bool {
	for _, p := range []string{"Test", "Example", "Fuzz"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// addType records a type's fields, interface methods and embedded types.
func (d *goDecls) addType(name string, typ ast.Expr) {
	var fields *ast.FieldList
	switch typ := typ.(type) {
	case *ast.StructType:
		fields = typ.Fields
	case *ast.InterfaceType:
		fields = typ.Methods
	default:
		d.embeds[name] = append(d.embeds[name], recvType(typ)) // an alias or a defined type
		return
	}
	for _, fl := range fields.List {
		if len(fl.Names) == 0 {
			embedded := recvType(fl.Type)
			d.embeds[name] = append(d.embeds[name], embedded)
			d.member(name, embedded)
			continue
		}
		for _, n := range fl.Names {
			d.member(name, n.Name)
		}
	}
}

// recvType is the bare type name of a receiver or embedded field: *T, T[P]
// and pkg.T all give T.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// hasMember reports whether typ, or a type it embeds, has the field or
// method name.
func (d *goDecls) hasMember(typ, name string, seen map[string]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	if d.members[typ][name] {
		return true
	}
	for _, e := range d.embeds[typ] {
		if d.hasMember(e, name, seen) {
			return true
		}
	}
	return false
}

// resolves reports whether a dotted Go name is declared: the last part must
// be a declaration of the package, or a member of the type, that the part
// before it names; after any other qualifier (a variable) it must be an
// identifier the code uses. Names in standard-library packages are not
// checked.
func (d *goDecls) resolves(name string) bool {
	parts := strings.Split(name, ".")
	last := parts[len(parts)-1]
	if len(parts) == 1 {
		return d.idents[last]
	}
	qual := parts[len(parts)-2]
	if d.stdlib[qual] && len(parts) == 2 {
		return true
	}
	if top, ok := d.pkgs[qual]; ok {
		return top[last]
	}
	_, hasFields := d.members[qual]
	if _, isType := d.embeds[qual]; hasFields || isType {
		return d.hasMember(qual, last, map[string]bool{})
	}
	return d.idents[last]
}

var (
	fenceRe    = regexp.MustCompile("(?s)```[^\n]*\n.*?```")
	codeSpanRe = regexp.MustCompile("`([^`]+)`")
	// goNameRe is a Go-shaped code span: a dotted identifier chain, perhaps a
	// pointer or a call.
	goNameRe = regexp.MustCompile(`^\*?([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)(\(.*\))?$`)
	// mixedCapsRe is a word with a lower-case letter followed by an upper-case
	// one: coverStage, NewGramSet, signatureIDs.
	mixedCapsRe = regexp.MustCompile(`[a-z][A-Z]`)
	// goCallRe is a selector in a fenced Go block whose name is exported.
	goCallRe = regexp.MustCompile(`\b([A-Za-z_][A-Za-z0-9_]*)\.([A-Z][A-Za-z0-9_]*)\b`)
)

// docNames returns the Go-shaped names a markdown document mentions: code
// spans that are a call, a dotted identifier chain whose last part has an
// upper-case letter, or one mixedCaps word (metric names and JSON keys are
// snake_case, header names and magic strings one capitalised word, and all
// are skipped), and the exported selectors of its fenced go blocks.
func docNames(text string) []string {
	var names []string
	for _, block := range fenceRe.FindAllString(text, -1) {
		if !strings.HasPrefix(block, "```go") {
			continue
		}
		for _, m := range goCallRe.FindAllStringSubmatch(block, -1) {
			names = append(names, m[1]+"."+m[2])
		}
	}
	for _, m := range codeSpanRe.FindAllStringSubmatch(fenceRe.ReplaceAllString(text, ""), -1) {
		g := goNameRe.FindStringSubmatch(strings.TrimSpace(m[1]))
		if g == nil {
			continue
		}
		parts := strings.Split(g[1], ".")
		last := parts[len(parts)-1]
		switch {
		case token.IsKeyword(last):
			continue
		case g[2] != "":
		case len(parts) > 1 && strings.IndexFunc(last, unicode.IsUpper) >= 0:
		case len(parts) == 1 && mixedCapsRe.MatchString(last):
		default:
			continue
		}
		names = append(names, g[1])
	}
	return names
}

// TestDocsNameDeclaredIdentifiers fails on a Go name that README.md or
// ARCHITECTURE.md mentions and no Go file in the repository declares: a
// renamed or deleted function, type, field or test that the prose still
// calls by its old name.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	d := parseRepo(t)
	for _, doc := range []string{"README.md", "ARCHITECTURE.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[string]bool{}
		for _, name := range docNames(string(text)) {
			if !d.resolves(name) {
				missing[name] = true
			}
		}
		var list []string
		for name := range missing {
			list = append(list, name)
		}
		sort.Strings(list)
		for _, name := range list {
			t.Errorf("%s names `%s`, which no Go file declares", doc, name)
		}
	}
}

// archPointerRe is a pointer into ARCHITECTURE.md: the file name, a comma
// and the heading pointed at in double quotes.
var archPointerRe = regexp.MustCompile(`ARCHITECTURE\.md, "([^"]+)"`)

// TestDocPointersNameHeadings fails on a pointer into ARCHITECTURE.md, in
// any Go comment, README.md or the verify skill, whose quoted heading is no
// heading of ARCHITECTURE.md, and on a non-test Go comment that mentions
// ARCHITECTURE.md without naming a heading. Line breaks and comment markers
// inside a pointer do not count.
func TestDocPointersNameHeadings(t *testing.T) {
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, line := range strings.Split(fenceRe.ReplaceAllString(string(arch), ""), "\n") {
		if h := strings.TrimLeft(line, "#"); h != line && strings.HasPrefix(h, " ") {
			headings[strings.TrimSpace(h)] = true
		}
	}
	sources := parseRepo(t).notes
	for _, doc := range []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		sources[doc] = string(text)
	}
	checked := 0
	for src, text := range sources {
		text = strings.Join(strings.Fields(text), " ")
		pointers := archPointerRe.FindAllStringSubmatch(text, -1)
		for _, m := range pointers {
			checked++
			if !headings[m[1]] {
				t.Errorf("%s points to ARCHITECTURE.md, %q, which is no heading there", src, m[1])
			}
		}
		if strings.HasSuffix(src, ".go") && !strings.HasSuffix(src, "_test.go") && strings.Count(text, "ARCHITECTURE.md") > len(pointers) {
			t.Errorf("%s mentions ARCHITECTURE.md without naming a heading", src)
		}
	}
	if checked == 0 {
		t.Fatal("no pointer into ARCHITECTURE.md found; the check reads nothing")
	}
}

// skillRunRe is a go test command with a -run pattern.
var skillRunRe = regexp.MustCompile(`go test\b[^;&|\n]*?-run[ =]`)

// TestSkillRunPatternsMatchTests fails on a `go test -run` pattern in the
// verify skill that selects no test in the packages the command names: each
// alternative of the pattern must match a Test, Example or Fuzz function
// there. Commands that also pass -bench or -fuzz select no test on purpose
// and are skipped.
func TestSkillRunPatternsMatchTests(t *testing.T) {
	d := parseRepo(t)
	text, err := os.ReadFile(filepath.Join(".claude", "skills", "verify", "SKILL.md"))
	if err != nil {
		t.Fatal(err)
	}
	var commands []string
	for _, block := range fenceRe.FindAllString(string(text), -1) {
		commands = append(commands, strings.Split(block, "\n")...)
	}
	for _, m := range codeSpanRe.FindAllStringSubmatch(fenceRe.ReplaceAllString(string(text), ""), -1) {
		commands = append(commands, strings.Join(strings.Fields(m[1]), " "))
	}
	checked := 0
	for _, cmd := range commands {
		if !skillRunRe.MatchString(cmd) || strings.Contains(cmd, "-bench") || strings.Contains(cmd, "-fuzz") {
			continue
		}
		args := strings.Fields(cmd[strings.Index(cmd, "go test"):])
		var pattern string
		var dirs []string
		for i := 2; i < len(args); i++ {
			a := args[i]
			switch {
			case a == "-run" && i+1 < len(args):
				i++
				pattern = strings.Trim(args[i], `'"`)
			case strings.HasPrefix(a, "-run="):
				pattern = strings.Trim(strings.TrimPrefix(a, "-run="), `'"`)
			case a == "." || strings.HasPrefix(a, "./"):
				dirs = append(dirs, a)
			}
		}
		if len(dirs) == 0 {
			dirs = []string{"."}
		}
		checked++
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(strings.Split(alt, "/")[0])
			if err != nil {
				t.Errorf("SKILL.md `%s`: pattern %q: %v", cmd, alt, err)
				continue
			}
			if !d.anyTest(dirs, re) {
				t.Errorf("SKILL.md `%s`: -run alternative %q matches no test in %v", cmd, alt, dirs)
			}
		}
	}
	if checked == 0 {
		t.Fatal("SKILL.md holds no go test -run command; the check reads nothing")
	}
}

// anyTest reports whether a test function in one of the package arguments
// dirs matches re; an argument ending in "/..." takes in every directory
// below it.
func (d *goDecls) anyTest(dirs []string, re *regexp.Regexp) bool {
	for dir, names := range d.tests {
		for _, arg := range dirs {
			root, tree := strings.CutSuffix(arg, "/...")
			root = filepath.Clean(root)
			if dir != root && !(tree && (root == "." || strings.HasPrefix(dir, root+"/"))) {
				continue
			}
			for _, n := range names {
				if re.MatchString(n) {
					return true
				}
			}
		}
	}
	return false
}

// mdNameRe is the name of a Markdown file, with or without a directory.
var mdNameRe = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestGoNamesExistingDocs fails on a Markdown file that a Go comment or
// string literal names and the tree does not hold: a pointer to a document
// that was never written, or was renamed or removed since. A name with a
// directory must be a file relative to the Go file's directory or to the
// repository root; a bare name, one of either or, as the verify skill's
// SKILL.md is, a file of that name anywhere in the tree.
func TestGoNamesExistingDocs(t *testing.T) {
	held := map[string]bool{} // every Markdown file's path and base name
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && e.Name() != ".claude" && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !e.IsDir() && strings.HasSuffix(path, ".md") {
			held[path], held[e.Name()] = true, true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := parseRepo(t)
	named := 0
	for src, notes := range d.notes {
		for _, name := range mdNameRe.FindAllString(notes+"\n"+d.lits[src], -1) {
			named++
			name = strings.TrimRight(name, ".")
			local := filepath.Join(filepath.Dir(src), name)
			if !held[filepath.Clean(name)] && !held[local] {
				t.Errorf("%s names %s, which is not in the tree", src, name)
			}
		}
	}
	if named == 0 {
		t.Fatal("no Go file names a Markdown file; the check reads nothing")
	}
}
