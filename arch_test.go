package sigmadedupe

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The north star's structural rules, checked over the tree docs_test.go
// parses (one parse for both). Each rule is a function of a parsed tree
// and an archRules, so testdata/arch can prove that every rule fires.
//
//	(a) imports: each internal/ package (and the root) imports only the
//	    internal/ packages its table entry lists; bench/'s internal/
//	    imports are a ratchet that may only shrink, and the shims only
//	    bench/ compiles against have no other importer, cmd/ and
//	    examples/ included.
//	(b) surface: an exported internal/ top-level name that no other
//	    package's non-test code names, and a top-level internal/
//	    declaration that no non-test code names at all, fail unless
//	    listed with a reason. Methods are out of scope: the AST cannot
//	    see interface satisfaction.
//	(c) context: the packages a request runs through take their context
//	    from the caller; only the listed roots start one.
//	(d) counts: each ratchet fails when the tree exceeds it. Raising one
//	    is a design decision recorded in CHANGES.md, never a way to pass.
type archRules struct {
	module       string
	imports      map[string][]string // importer directory → the internal/ directories it may import
	benchImports []string            // bench/'s internal/ imports
	benchOnly    []string            // the internal/ packages no importer but bench/ may import
	exceptions   map[string]string   // "pkg.Name" → why it stays with no user outside (or at all)
	ctxPackages  []string            // package directories
	ctxRoots     map[string]string   // "pkg.Func" or "pkg.Type.Method" → why it starts a context
	counts       map[string]int      // archCount* → ratchet
}

const (
	archCountPackages = "internal/ packages"
	archCountRootLoC  = "root non-test lines"
	archCountCISteps  = "CI step entries"
	archCountStats    = "*Stats structs with their own storage"
	archCountExcepted = "surface exceptions"
)

var repoArch = archRules{
	module: "sigmadedupe",
	imports: map[string][]string{
		".": {"internal/chunker", "internal/cluster", "internal/container", "internal/core", "internal/director",
			"internal/experiments", // ROADMAP 8(e) moves the figures out of the root package
			"internal/fingerprint", "internal/ingest", "internal/metrics", "internal/migrate",
			"internal/router", "internal/rpc", "internal/sderr", "internal/store", "internal/tenant", "internal/workload"},
		"internal/bloom":   {"internal/fingerprint"},
		"internal/chunker": {},
		"internal/cluster": {"internal/core", "internal/director", "internal/fingerprint", "internal/ingest", "internal/metrics",
			"internal/migrate", "internal/router", "internal/store", "internal/workload"},
		"internal/container": {"internal/fingerprint", "internal/sderr"},
		"internal/core":      {"internal/chunker", "internal/fingerprint"},
		"internal/director":  {"internal/fingerprint", "internal/sderr", "internal/tenant", "internal/wire"},
		"internal/experiments": {"internal/chunker", "internal/cluster", "internal/core", "internal/fingerprint", "internal/ingest",
			"internal/metrics", "internal/router", "internal/simindex", "internal/store", "internal/workload"},
		"internal/fingerprint": {},
		"internal/ingest": {"internal/chunker", "internal/core", "internal/director", "internal/fingerprint", "internal/migrate",
			"internal/pipeline", "internal/router", "internal/sderr", "internal/tenant"},
		"internal/metrics": {},
		"internal/migrate": {"internal/core", "internal/director", "internal/fingerprint", "internal/pipeline",
			"internal/router", "internal/rpc", "internal/sderr", "internal/store", "internal/tenant"},
		"internal/node":     {"internal/store"}, // bench/ compiles against it; ROADMAP 17(b) deletes it
		"internal/pipeline": {},
		"internal/router":   {"internal/core", "internal/fingerprint"},
		"internal/rpc": {"internal/core", "internal/director", "internal/fingerprint", "internal/sderr",
			"internal/store", "internal/tenant", "internal/wire"},
		"internal/sderr":    {},
		"internal/simindex": {"internal/bloom", "internal/fingerprint"},
		"internal/store": {"internal/bloom", "internal/container", "internal/core", "internal/fingerprint", "internal/sderr",
			"internal/simindex", "internal/wire"},
		"internal/tenant":   {"internal/sderr"},
		"internal/wire":     {"internal/sderr"},
		"internal/workload": {"internal/core", "internal/fingerprint"},
	},
	// ROADMAP 17: bench/ is to import only the public surface.
	benchImports: []string{"internal/chunker", "internal/core", "internal/director", "internal/fingerprint",
		"internal/node", "internal/router", "internal/rpc", "internal/workload"},
	benchOnly: []string{"internal/node"},
	exceptions: map[string]string{
		"container.ChunkMeta":               "format: store tests build containers to corrupt",
		"container.Encode":                  "format: store tests write containers to corrupt",
		"container.FileName":                "format: store tests find container files to corrupt",
		"director.JournalName":              "format: journal tests truncate and corrupt it",
		"director.MembersJournalName":       "format: journal tests truncate and corrupt it",
		"director.TenantJournalName":        "format: journal tests truncate and corrupt it",
		"store.ManifestName":                "format: journal tests truncate and corrupt it",
		"wire.LogMagic":                     "format: journal tests forge record-log headers",
		"wire.ErrTruncated":                 "format: rpc codec tests match torn frames by it",
		"migrate.Stage":                     "crash stage: recovery tests kill a migration at each",
		"migrate.StageRead":                 "crash stage",
		"migrate.StageStored":               "crash stage",
		"migrate.StageCommitted":            "crash stage",
		"migrate.StageUpdated":              "crash stage",
		"migrate.StageDecreffed":            "crash stage",
		"store.CompactStage":                "crash stage: recovery tests kill a compaction at each",
		"store.StageCopied":                 "crash stage",
		"store.StageIndexed":                "crash stage",
		"store.StageSealed":                 "crash stage",
		"store.StageRetired":                "crash stage",
		"rpc.ServerOption":                  "test seam: server fault injection",
		"rpc.WithHandlerDelay":              "test seam: emulated node service latency",
		"rpc.WithSeverAfter":                "test seam: connection severed mid-window",
		"fingerprint.SetHashKernelsForTest": "test seam: kernels off and on against the standard library",
		"tenant.DomainShared":               "wire value: director tests send it",
		"workload.LinuxConfig":              "test seam: the scale-out gate sizes its own tree",
		"workload.DefaultLinuxConfig":       "test seam: the scale-out gate sizes its own tree",
		"workload.NewLinux":                 "test seam: the scale-out gate sizes its own tree",
	},
	ctxPackages: []string{"internal/rpc", "internal/store", "internal/container",
		"internal/simindex", "internal/director", "internal/tenant", "internal/wire"},
	ctxRoots: map[string]string{
		"rpc.serve":                   "the server's base context, cancelled by Close",
		"store.Engine.startCompactor": "the background compactor, stopped by Close",
	},
	counts: map[string]int{
		archCountPackages: 21,
		archCountRootLoC:  2614,
		archCountCISteps:  11,
		archCountStats:    8,
		archCountExcepted: 28,
	},
}

func TestArch(t *testing.T) {
	tr := loadDocTree(t)
	for _, rule := range archRuleSet {
		t.Run(rule.name, func(t *testing.T) {
			if v := rule.check(tr, repoArch); len(v) > 0 {
				t.Errorf("%d violations:\n%s", len(v), strings.Join(v, "\n"))
			}
		})
	}
}

// TestArchFixture runs the rules over testdata/arch, a tree with one
// violation per rule, and wants each named.
func TestArchFixture(t *testing.T) {
	tr, err := parseTree("testdata/arch")
	if err != nil {
		t.Fatal(err)
	}
	rules := archRules{
		module:      "fixture",
		imports:     map[string][]string{".": {"internal/a"}, "internal/a": {}, "internal/b": {}},
		exceptions:  map[string]string{},
		ctxPackages: []string{"internal/b"},
		ctxRoots:    map[string]string{},
		counts:      map[string]int{archCountPackages: 1, archCountRootLoC: 100, archCountCISteps: 0, archCountStats: 0},
	}
	var got []string
	for _, rule := range archRuleSet {
		got = append(got, rule.check(tr, rules)...)
	}
	want := []string{
		"internal/a imports internal/b",
		"a.Helper: exported",
		"a.dead: no non-test code",
		"context.Background in b.Serve",
		archCountPackages + ": 2",
	}
	t.Logf("fixture violations:\n%s", strings.Join(got, "\n"))
	if len(got) != len(want) {
		t.Errorf("got %d violations, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for _, w := range want {
		if !slices.ContainsFunc(got, func(g string) bool { return strings.Contains(g, w) }) {
			t.Errorf("no violation names %q; got:\n%s", w, strings.Join(got, "\n"))
		}
	}
}

var archRuleSet = []struct {
	name  string
	check func(*docTree, archRules) []string
}{
	{"imports", archImports},
	{"surface", archSurface},
	{"context", archContext},
	{"counts", archCounts},
}

// archFileImports maps a file's import names to the module directories
// they import.
func archFileImports(f *ast.File, module string) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		dir, ok := strings.CutPrefix(p, module+"/")
		if !ok {
			continue
		}
		name := filepath.Base(dir)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = dir
	}
	return out
}

func archImports(tr *docTree, r archRules) []string {
	edges := map[string]map[string]bool{}
	for _, sf := range tr.files {
		if sf.test {
			continue
		}
		for _, dir := range archFileImports(sf.f, r.module) {
			if !strings.HasPrefix(dir, "internal/") {
				continue
			}
			if edges[sf.dir] == nil {
				edges[sf.dir] = map[string]bool{}
			}
			edges[sf.dir][dir] = true
		}
	}
	inBench := func(dir string) bool { return dir == "bench" || strings.HasPrefix(dir, "bench/") }
	benchUses := map[string]bool{}
	var bad []string
	for from, tos := range edges {
		allowed, listed := r.imports[from]
		for to := range tos {
			switch {
			case inBench(from):
				benchUses[to] = true
				if !slices.Contains(r.benchImports, to) {
					bad = append(bad, from+" imports "+to+": bench/ may only shrink its internal/ imports")
				}
			case slices.Contains(r.benchOnly, to):
				bad = append(bad, from+" imports "+to+", which only bench/ may import")
			case listed || from == "." || strings.HasPrefix(from, "internal/"):
				if !slices.Contains(allowed, to) {
					bad = append(bad, from+" imports "+to+", which its table entry does not list")
				}
			}
		}
	}
	for from, allowed := range r.imports {
		for _, to := range allowed {
			if !edges[from][to] {
				bad = append(bad, from+" no longer imports "+to+": delete the table entry")
			}
		}
	}
	for _, to := range r.benchImports {
		if !benchUses[to] {
			bad = append(bad, "bench/ no longer imports "+to+": delete it from the ratchet")
		}
	}
	sort.Strings(bad)
	return bad
}

// archDecl is one top-level declaration of an internal/ package.
type archDecl struct {
	dir, name string
}

func (d archDecl) key() string { return filepath.Base(d.dir) + "." + d.name }

// archSurface reports the internal/ top-level names no other package
// names (if exported) and those no non-test code names at all.
func archSurface(tr *docTree, r archRules) []string {
	var decls []archDecl
	local := map[string]map[string]bool{} // directory → identifiers its non-test files name
	outside := map[archDecl]bool{}        // names another directory's non-test code names
	for _, sf := range tr.files {
		if sf.test {
			continue
		}
		if strings.HasPrefix(sf.dir, "internal/") {
			for _, name := range archTopNames(sf.f) {
				decls = append(decls, archDecl{sf.dir, name})
			}
		}
		if local[sf.dir] == nil {
			local[sf.dir] = map[string]bool{}
		}
		archRefs(sf.f, archFileImports(sf.f, r.module), func(dir, name string) {
			if dir != sf.dir {
				outside[archDecl{dir, name}] = true
			}
		}, local[sf.dir])
	}
	var bad []string
	flagged := map[string]bool{}
	for _, d := range decls {
		var why string
		switch {
		case !outside[d] && !local[d.dir][d.name]:
			why = "no non-test code names it (delete it, or list it with a reason)"
		case ast.IsExported(d.name) && !outside[d]:
			why = "exported, but no other package's non-test code names it (unexport it, or list it with a reason)"
		default:
			continue
		}
		flagged[d.key()] = true
		if _, ok := r.exceptions[d.key()]; !ok {
			bad = append(bad, d.dir+": "+d.key()+": "+why)
		}
	}
	for key := range r.exceptions {
		if !flagged[key] {
			bad = append(bad, "exception "+key+" is not needed: delete the entry")
		}
	}
	sort.Strings(bad)
	return bad
}

// archTopNames lists a file's top-level functions, types, vars and
// consts.
func archTopNames(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.Name != "init" && d.Name.Name != "main" {
				out = append(out, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					out = append(out, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.Name != "_" {
							out = append(out, n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// archRefs walks a file and reports every package-qualified name through
// qualified and every other identifier it names into local. Declaring
// identifiers, method receivers, selected members, struct literal keys
// and a function's own parameters and locals are not uses of a top-level
// name.
func archRefs(f *ast.File, imports map[string]string, qualified func(dir, name string), local map[string]bool) {
	var (
		visit  func(ast.Node) bool
		shadow map[string]bool
	)
	walk := func(n ast.Node) { ast.Inspect(n, visit) }
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if dir, ok := imports[id.Name]; ok {
					qualified(dir, x.Sel.Name)
					return false
				}
			}
			walk(x.X)
			return false
		case *ast.CompositeLit:
			switch x.Type.(type) {
			case *ast.MapType, *ast.ArrayType:
				return true // keys are expressions
			case nil:
			default:
				walk(x.Type)
			}
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if _, ok := kv.Key.(*ast.Ident); ok {
						elt = kv.Value // a field name
					}
				}
				walk(elt)
			}
			return false
		case *ast.FuncDecl:
			shadow = archLocals(x)
			walk(x.Type)
			if x.Body != nil {
				walk(x.Body)
			}
			shadow = nil
			return false
		case *ast.TypeSpec:
			if x.TypeParams != nil {
				walk(x.TypeParams)
			}
			walk(x.Type)
			return false
		case *ast.ValueSpec:
			if x.Type != nil {
				walk(x.Type)
			}
			for _, v := range x.Values {
				walk(v)
			}
			return false
		case *ast.Field:
			walk(x.Type)
			return false
		case *ast.ImportSpec:
			return false
		case *ast.File:
			for _, d := range x.Decls {
				walk(d)
			}
			return false
		case *ast.Ident:
			if !shadow[x.Name] {
				local[x.Name] = true
			}
		}
		return true
	}
	walk(f)
}

// archLocals lists the names a function declares for itself: receiver,
// parameters, results and locals, its closures' included.
func archLocals(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	add := func(ids ...*ast.Ident) {
		for _, id := range ids {
			out[id.Name] = true
		}
	}
	fields := func(fl *ast.FieldList) {
		if fl != nil {
			for _, fld := range fl.List {
				add(fld.Names...)
			}
		}
	}
	fields(fd.Recv)
	ast.Inspect(fd, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncType:
			fields(x.TypeParams)
			fields(x.Params)
			fields(x.Results)
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				for _, e := range x.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						add(id)
					}
				}
			}
		case *ast.RangeStmt:
			if x.Tok == token.DEFINE {
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if id, ok := e.(*ast.Ident); ok {
						add(id)
					}
				}
			}
		case *ast.ValueSpec:
			add(x.Names...)
		case *ast.TypeSpec:
			add(x.Name)
		}
		return true
	})
	return out
}

// archContext reports context.Background and context.TODO in the
// request packages outside the listed roots.
func archContext(tr *docTree, r archRules) []string {
	var bad []string
	used := map[string]bool{}
	for _, sf := range tr.files {
		if sf.test || !slices.Contains(r.ctxPackages, sf.dir) {
			continue
		}
		ctxName := ""
		for _, imp := range sf.f.Imports {
			if imp.Path.Value == `"context"` {
				ctxName = "context"
				if imp.Name != nil {
					ctxName = imp.Name.Name
				}
			}
		}
		if ctxName == "" {
			continue
		}
		for _, decl := range sf.f.Decls {
			where := filepath.Base(sf.dir) + "." + archDeclName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == ctxName && (sel.Sel.Name == "Background" || sel.Sel.Name == "TODO") {
					used[where] = true
					if _, ok := r.ctxRoots[where]; !ok {
						bad = append(bad, sf.path+": context."+sel.Sel.Name+" in "+where+": take the caller's context")
					}
				}
				return true
			})
		}
	}
	for root := range r.ctxRoots {
		if !used[root] {
			bad = append(bad, "context root "+root+" starts no context: delete the entry")
		}
	}
	sort.Strings(bad)
	return bad
}

// archDeclName is "Func", "Type.Method" or "var" for a top-level
// declaration.
func archDeclName(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return "var"
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	return recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

var archCIStepRE = regexp.MustCompile(`(?m)^\s*- (name|uses|run):`)

func archCounts(tr *docTree, r archRules) []string {
	pkgs := map[string]bool{}
	have := map[string]int{}
	for _, sf := range tr.files {
		if sf.test {
			continue
		}
		if strings.HasPrefix(sf.dir, "internal/") {
			pkgs[sf.dir] = true
		}
		if sf.dir == "." {
			have[archCountRootLoC] += sf.lines
		}
		for _, decl := range sf.f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && strings.HasSuffix(ts.Name.Name, "Stats") && ts.Assign == 0 {
						if _, ok := ts.Type.(*ast.StructType); ok {
							have[archCountStats]++
						}
					}
				}
			}
		}
	}
	have[archCountPackages] = len(pkgs)
	have[archCountExcepted] = len(r.exceptions)
	if ci, err := os.ReadFile(filepath.Join(tr.root, ".github/workflows/ci.yml")); err == nil {
		have[archCountCISteps] = len(archCIStepRE.FindAll(ci, -1))
	}
	var bad []string
	for name, limit := range r.counts {
		if have[name] > limit {
			bad = append(bad, name+": "+strconv.Itoa(have[name])+" > ratchet "+strconv.Itoa(limit))
		}
	}
	sort.Strings(bad)
	return bad
}
