package sigmadedupe

import (
	"encoding/json"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The documents cite the tree by name, and a name in backticks asserts
// that it exists: a deleted name is written as plain text, and struck
// text (~~…~~) is history. TestDocsResolve holds README.md, DESIGN.md,
// EXPERIMENTS.md and ROADMAP.md's "Open items" to that rule.
//
// bench/README.md is not an input. It documents the benchmark harness,
// which changes only together with BENCHMARK.json; its stale lines (:10
// and :41) are ROADMAP item 1(b).
var docInputs = []struct {
	file    string
	section string // "" checks the whole file, else the "## " section
}{
	{"README.md", ""},
	{"DESIGN.md", ""},
	{"EXPERIMENTS.md", ""},
	{"ROADMAP.md", "Open items"},
}

// docClass is what a backticked token claims to name.
type docClass string

const (
	docSkip   docClass = ""
	docIdent  docClass = "identifier"
	docPath   docClass = "path"
	docFlag   docClass = "flag"
	docMetric docClass = "metric"
)

var (
	docIdentRE  = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*){0,2}(\(\))?$`)
	docPathRE   = regexp.MustCompile(`^[A-Za-z0-9_.*/-]+(:[0-9]+)?$`)
	docFlagRE   = regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)
	docMetricRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$|^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)
	docLineRE   = regexp.MustCompile(`:([0-9]+)$`)
	docExts     = []string{".go", ".md", ".json", ".yml", ".s", ".sh", ".mod", ".txt"}
)

// classifyDocToken decides which class a whole token belongs to. Tokens
// of no class — shell commands, expressions, absolute paths, bare
// lower-case words such as the CLI's mode and scheme names — are not
// checked.
func classifyDocToken(tok string) docClass {
	bare := docLineRE.ReplaceAllString(tok, "")
	switch {
	case docFlagRE.MatchString(tok):
		return docFlag
	case strings.HasPrefix(tok, "/"):
		return docSkip // a host path, URL path or runtime/metrics name
	case docPathRE.MatchString(tok) && (strings.Contains(tok, "/") || hasDocExt(bare)):
		return docPath
	case docMetricRE.MatchString(tok):
		return docMetric
	case docIdentRE.MatchString(tok):
		if !strings.ContainsAny(tok, ".()ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
			return docSkip
		}
		return docIdent
	}
	return docSkip
}

func hasDocExt(s string) bool {
	for _, ext := range docExts {
		if strings.HasSuffix(s, ext) {
			return true
		}
	}
	return false
}

func TestDocTokenClasses(t *testing.T) {
	for tok, want := range map[string]docClass{
		"Backend":                     docIdent,
		"plane.gcStats":               docIdent,
		"ingest.Session.BackupRefs()": docIdent,
		"Session.Backup":              docIdent,
		"migrate.Restore":             docIdent,
		"remote.go:257":               docPath,
		"internal/store":              docPath,
		"./internal/...":              docPath,
		"BENCH_*.json":                docPath,
		"go/parser":                   docPath,
		"-quick":                      docFlag,
		"-mode":                       docFlag,
		"store.fpcache_hit_rate":      docMetric,
		"ingest_mb_s":                 docMetric,
		"sigma":                       docSkip,
		"gc":                          docSkip,
		"go test ./...":               docSkip,
		"Replicas: 2":                 docSkip,
		"-count=5":                    docSkip,
		"errors.Is(err, ErrNotFound)": docSkip,
		"R=2":                         docSkip,
		"/metrics":                    docSkip,
	} {
		if got := classifyDocToken(tok); got != want {
			t.Errorf("classify(%q) = %q, want %q", tok, got, want)
		}
	}
}

// docToken is one backticked span outside struck text and code fences.
type docToken struct {
	file string
	line int
	text string
}

// docTokens extracts the inline code spans of a markdown text.
func docTokens(file, text string, firstLine int) []docToken {
	var (
		out    []docToken
		line   = firstLine
		fence  bool
		struck bool
	)
	for _, l := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fence = !fence
			line++
			continue
		}
		if fence {
			line++
			continue
		}
		for i := 0; i < len(l); i++ {
			switch {
			case strings.HasPrefix(l[i:], "~~"):
				struck = !struck
				i++
			case l[i] == '`':
				j := strings.IndexByte(l[i+1:], '`')
				if j < 0 {
					i = len(l)
					continue
				}
				if !struck {
					out = append(out, docToken{file, line, l[i+1 : i+1+j]})
				}
				i += j + 1
			}
		}
		line++
	}
	return out
}

// docSection returns the "## name" section of text and its first line.
func docSection(text, name string) (string, int) {
	lines := strings.SplitAfter(text, "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "## ") {
			if start >= 0 {
				return strings.Join(lines[start:i], ""), start + 1
			}
			if strings.TrimSpace(l[3:]) == name {
				start = i
			}
		}
	}
	if start < 0 {
		return "", 1
	}
	return strings.Join(lines[start:], ""), start + 1
}

// docTree is what the tree declares: the sets the classes resolve
// against, and the parsed files arch_test.go checks.
type docTree struct {
	root       string
	files      []srcFile
	pkgs       map[string][]string        // package and directory name → directories
	top        map[string]map[string]bool // directory → top-level names
	members    map[string]map[string]bool // type name → its methods and fields
	embeds     map[string][]string        // type name → embedded type names
	names      map[string]bool            // every declared name, member or not
	qualifiers map[string]bool            // vars and fields
	flags      map[string]bool            // flags defined under cmd/ and bench/
	metrics    map[string]bool            // BENCHMARK.json, bench/metrics.go, cmd/ JSON keys
	std        map[string]map[string]bool // standard-library package → exported names
	lineCounts map[string]int
}

// flagDefiners are the flag and FlagSet methods that define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "String": true, "StringVar": true,
	"Float64": true, "Float64Var": true, "Duration": true, "DurationVar": true, "Var": true,
	"Func": true, "BoolFunc": true, "TextVar": true,
}

// srcFile is one parsed Go file of a tree.
type srcFile struct {
	path  string // slash-separated, relative to the tree's root
	dir   string
	test  bool
	lines int
	f     *ast.File
}

// repoTree is the repository parsed once and shared by every test that
// reads it.
var repoTree struct {
	once sync.Once
	tr   *docTree
	err  error
}

func loadDocTree(t *testing.T) *docTree {
	t.Helper()
	repoTree.once.Do(func() {
		repoTree.tr, repoTree.err = parseTree(".")
		if repoTree.err == nil {
			repoTree.err = repoTree.tr.addBenchmarkMetrics("BENCHMARK.json")
		}
	})
	if repoTree.err != nil {
		t.Fatal(repoTree.err)
	}
	return repoTree.tr
}

// parseTree parses every Go file under root, skipping hidden, testdata
// and out directories.
func parseTree(root string) (*docTree, error) {
	tr := &docTree{
		root:       root,
		pkgs:       map[string][]string{},
		top:        map[string]map[string]bool{},
		members:    map[string]map[string]bool{},
		embeds:     map[string][]string{},
		names:      map[string]bool{},
		qualifiers: map[string]bool{},
		flags:      map[string]bool{},
		metrics:    map[string]bool{},
		std:        map[string]map[string]bool{},
		lineCounts: map[string]int{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sf := srcFile{
			path:  filepath.ToSlash(rel),
			dir:   filepath.ToSlash(filepath.Dir(rel)),
			test:  strings.HasSuffix(rel, "_test.go"),
			lines: fset.File(f.Pos()).LineCount(),
			f:     f,
		}
		tr.files = append(tr.files, sf)
		tr.addFile(sf.path, f)
		return nil
	})
	return tr, err
}

// addBenchmarkMetrics records the metric names a BENCHMARK.json declares.
func (tr *docTree) addBenchmarkMetrics(path string) error {
	var bm struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		return err
	}
	for _, m := range append(bm.EndToEnd, bm.PerLayer...) {
		tr.metrics[m.Name] = true
	}
	return nil
}

// addFile records one parsed file's declarations, flags and metrics.
func (tr *docTree) addFile(path string, f *ast.File) {
	dir := filepath.Dir(path)
	for _, name := range []string{f.Name.Name, filepath.Base(dir)} {
		if !slices.Contains(tr.pkgs[name], dir) {
			tr.pkgs[name] = append(tr.pkgs[name], dir)
		}
	}
	if tr.top[dir] == nil {
		tr.top[dir] = map[string]bool{}
	}
	top := tr.top[dir]
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			tr.names[d.Name.Name] = true
			if d.Recv == nil {
				top[d.Name.Name] = true
				continue
			}
			tr.member(recvName(d.Recv.List[0].Type), d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					top[s.Name.Name] = true
					tr.names[s.Name.Name] = true
					tr.addType(s.Name.Name, s.Type)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top[n.Name] = true
						tr.names[n.Name] = true
						tr.qualifiers[n.Name] = true
					}
				}
			}
		}
	}
	under := func(root string) bool { return dir == root || strings.HasPrefix(dir, root+"/") }
	if under("cmd") || under("bench") {
		ast.Inspect(f, func(n ast.Node) bool {
			if fld, ok := n.(*ast.Field); ok && fld.Tag != nil && under("cmd") {
				// The JSON keys the CLI prints are metric names too.
				tag, _ := strconv.Unquote(fld.Tag.Value)
				if key, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); key != "" {
					tr.metrics[key] = true
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						tr.flags["-"+name] = true
					}
					break
				}
			}
			return true
		})
	}
	if path == "bench/metrics.go" {
		ast.Inspect(f, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "name" {
				if lit, ok := kv.Value.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						tr.metrics[name] = true
					}
				}
			}
			return true
		})
	}
}

// addType records a type's fields, interface methods and embeddings.
func (tr *docTree) addType(name string, typ ast.Expr) {
	var fields *ast.FieldList
	switch x := typ.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, fld := range fields.List {
		if len(fld.Names) == 0 {
			tr.embeds[name] = append(tr.embeds[name], recvName(fld.Type))
			continue
		}
		for _, n := range fld.Names {
			tr.member(name, n.Name)
			tr.qualifiers[n.Name] = true
		}
	}
}

func (tr *docTree) member(typ, name string) {
	if tr.members[typ] == nil {
		tr.members[typ] = map[string]bool{}
	}
	tr.members[typ][name] = true
	tr.names[name] = true
}

// recvName is the bare type name of a receiver or embedded field.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// hasMember reports whether typ, or a type it embeds, declares name.
func (tr *docTree) hasMember(typ, name string, seen map[string]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	if tr.members[typ][name] {
		return true
	}
	for _, e := range tr.embeds[typ] {
		if tr.hasMember(e, name, seen) {
			return true
		}
	}
	return false
}

// stdNames parses a standard-library package's exported names once.
func (tr *docTree) stdNames(pkg string) map[string]bool {
	if names, ok := tr.std[pkg]; ok {
		return names
	}
	names := map[string]bool{}
	tr.std[pkg] = names
	src := filepath.Join(build.Default.GOROOT, "src")
	dirs, _ := filepath.Glob(filepath.Join(src, "*", pkg))
	dirs = append([]string{filepath.Join(src, pkg)}, dirs...)
	for _, dir := range dirs {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil || f.Name.Name != pkg {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name] = true
					} else {
						names[recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
		if len(names) > 0 {
			break
		}
	}
	return names
}

// resolveIdent resolves Name, pkg.Name, Type.Member or pkg.Type.Member.
func (tr *docTree) resolveIdent(tok string) bool {
	parts := strings.Split(strings.TrimSuffix(tok, "()"), ".")
	switch len(parts) {
	case 1:
		return tr.names[parts[0]]
	case 2:
		q, n := parts[0], parts[1]
		for _, dir := range tr.pkgs[q] {
			if tr.top[dir][n] {
				return true
			}
		}
		if tr.hasMember(q, n, map[string]bool{}) {
			return true
		}
		if tr.qualifiers[q] && tr.names[n] {
			return true
		}
		return len(tr.pkgs[q]) == 0 && tr.stdNames(q)[n]
	case 3:
		q, typ, n := parts[0], parts[1], parts[2]
		for _, dir := range tr.pkgs[q] {
			if tr.top[dir][typ] && (tr.hasMember(typ, n, map[string]bool{}) || tr.qualifiers[typ] && tr.names[n]) {
				return true
			}
		}
		if tr.hasMember(q, typ, map[string]bool{}) && tr.names[n] {
			return true
		}
		std := tr.stdNames(q)
		return len(tr.pkgs[q]) == 0 && std[typ] && std[typ+"."+n]
	}
	return false
}

// resolvePath stats a repository path (a glob must match something) or
// names a standard-library package; a :N suffix must be within the file.
func (tr *docTree) resolvePath(tok string) bool {
	path, n := tok, 0
	if m := docLineRE.FindStringSubmatch(tok); m != nil {
		path = strings.TrimSuffix(tok, m[0])
		n, _ = strconv.Atoi(m[1])
	}
	path = strings.TrimPrefix(path, "sigmadedupe/")
	path = strings.TrimSuffix(strings.TrimSuffix(path, "/..."), "/")
	if path == "." || path == "" {
		return true
	}
	if strings.Contains(path, "*") {
		matches, _ := filepath.Glob(path)
		return len(matches) > 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		fi, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", path))
		return err == nil && fi.IsDir() && n == 0
	}
	if n == 0 {
		return true
	}
	if fi.IsDir() {
		return false
	}
	lines, ok := tr.lineCounts[path]
	if !ok {
		raw, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		lines = strings.Count(string(raw), "\n")
		tr.lineCounts[path] = lines
	}
	return n >= 1 && n <= lines
}

func (tr *docTree) resolve(tok string, class docClass) bool {
	switch class {
	case docIdent:
		return tr.resolveIdent(tok)
	case docPath:
		return tr.resolvePath(tok)
	case docFlag:
		return tr.flags[tok]
	case docMetric:
		return tr.metrics[tok] || tr.resolveIdent(tok)
	}
	return true
}

// TestDocsResolve fails for every backticked name in the documents that
// does not resolve against the tree, one line per token.
func TestDocsResolve(t *testing.T) {
	tr := loadDocTree(t)
	var bad []string
	checked := 0
	for _, in := range docInputs {
		raw, err := os.ReadFile(in.file)
		if err != nil {
			t.Fatal(err)
		}
		text, first := string(raw), 1
		if in.section != "" {
			if text, first = docSection(text, in.section); text == "" {
				t.Fatalf("%s has no %q section", in.file, in.section)
			}
		}
		for _, tok := range docTokens(in.file, text, first) {
			class := classifyDocToken(tok.text)
			if class == docSkip {
				continue
			}
			checked++
			if !tr.resolve(tok.text, class) {
				bad = append(bad, tok.file+":"+strconv.Itoa(tok.line)+": "+tok.text+" ("+string(class)+")")
			}
		}
	}
	t.Logf("%d backticked names checked", checked)
	if len(bad) > 0 {
		t.Errorf("%d backticked names do not resolve against the tree (write a deleted name as plain text):\n%s",
			len(bad), strings.Join(bad, "\n"))
	}
}

// docVerbRow is a row of DESIGN.md's verb table: | op | `verb` | classes |.
var docVerbRow = regexp.MustCompile("(?m)^\\s*\\| (\\d+) \\| `(\\w+)` \\| ([^|]*) \\|$")

// TestDocsVerbTable compares DESIGN.md's verb table with the verbs
// internal/rpc declares: every node verb a row with its op and class
// bits, and no class bits on a director verb (op 32 and up).
func TestDocsVerbTable(t *testing.T) {
	tr := loadDocTree(t)
	var code []string
	for _, sf := range tr.files {
		if sf.dir != "internal/rpc" || sf.test {
			continue
		}
		for _, decl := range sf.f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if len(vs.Values) != 1 {
					continue
				}
				call, ok := vs.Values[0].(*ast.CallExpr)
				if !ok {
					continue
				}
				if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "declare" {
					continue
				}
				op, _ := strconv.Atoi(call.Args[0].(*ast.BasicLit).Value)
				var classes []string
				ast.Inspect(call.Args[1], func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						classes = append(classes, id.Name)
					}
					return true
				})
				if op >= 32 {
					if len(classes) > 0 {
						t.Errorf("director verb %s has class bits %v", vs.Names[0].Name, classes)
					}
					continue
				}
				slices.Sort(classes)
				code = append(code, strconv.Itoa(op)+" "+vs.Names[0].Name+" "+strings.Join(classes, " "))
			}
		}
	}
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var doc []string
	for _, m := range docVerbRow.FindAllStringSubmatch(string(raw), -1) {
		var classes []string
		for _, tok := range docTokens("DESIGN.md", m[3], 1) {
			classes = append(classes, tok.text)
		}
		slices.Sort(classes)
		doc = append(doc, m[1]+" "+m[2]+" "+strings.Join(classes, " "))
	}
	slices.Sort(code)
	slices.Sort(doc)
	if len(code) == 0 || !slices.Equal(code, doc) {
		t.Errorf("DESIGN.md's verb table (op verb classes):\n%s\ninternal/rpc declares:\n%s",
			strings.Join(doc, "\n"), strings.Join(code, "\n"))
	}
}
