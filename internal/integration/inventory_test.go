package integration

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goFile is one parsed Go source file of the repository.
type goFile struct {
	dir  string // directory relative to the repository root, slash-separated
	test bool   // a _test.go file
	ast  *ast.File
}

// parseGoFiles parses every Go file under the repository-relative
// directory root, skipping hidden directories (build output), testdata
// and perfbench's out/.
func parseGoFiles(t *testing.T, root string) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	top := filepath.Join("../..", root)
	err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != top && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
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
		rel, err := filepath.Rel("../..", filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, goFile{dir: filepath.ToSlash(rel), test: strings.HasSuffix(path, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// fuzzRunRE matches one `go test -fuzz=<name> ... ./<pkg>/` line of the
// Makefile's fuzz recipe.
var fuzzRunRE = regexp.MustCompile(`-fuzz=(\w+)\s.*\s\./(\S+?)/?\s*$`)

// TestFuzzTargetsInMakefile checks that `make fuzz` runs every fuzz
// target under internal/: one the recipe does not name only ever runs
// its seed corpus.
func TestFuzzTargetsInMakefile(t *testing.T) {
	raw, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(raw), "\nfuzz:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz target")
	}
	if i := strings.Index(recipe, "\n\n"); i >= 0 {
		recipe = recipe[:i]
	}
	run := make(map[string]bool) // "internal/<pkg>.<FuzzName>"
	for _, line := range strings.Split(recipe, "\n") {
		if m := fuzzRunRE.FindStringSubmatch(line); m != nil {
			run[m[2]+"."+m[1]] = true
		}
	}
	found := 0
	for _, f := range parseGoFiles(t, "internal") {
		if !f.test {
			continue
		}
		for _, decl := range f.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") {
				continue
			}
			found++
			if !run[f.dir+"."+fn.Name.Name] {
				t.Errorf("%s declares %s, which the Makefile's fuzz recipe does not run", f.dir, fn.Name.Name)
			}
		}
	}
	if found == 0 {
		t.Fatal("no Fuzz* functions found under internal/; the walker is stale")
	}
}

// interfaceMethods are method names that code outside the module calls
// through an interface (net/http, encoding/json, errors, fmt, net), so
// no selector in this repository need name them.
var interfaceMethods = map[string]bool{
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Unwrap": true, "Error": true, "String": true,
	"Temporary": true, "Timeout": true, "Is": true,
}

// uncalledAllowed lists the exported functions and methods under
// internal/ that no non-test code calls but that stay, keyed
// "<dir under internal>.<Func>" or "<dir under internal>.<Type>.<Method>".
// An entry earns its place by naming the test or document that needs it;
// plumbing that only tests switch on is deleted instead.
var uncalledAllowed = map[string]string{
	// Catalogues the doc-parity tests read.
	"audit.Kinds":        "TestAuditKindDocCatalogue diffs it against OBSERVABILITY.md",
	"obs.Registry.Names": "TestObservabilityDocCatalogue diffs it against OBSERVABILITY.md",

	// Test fakes and seams.
	"clock.Fake.Advance":            "moves the fake clock of every expiry test (TestFakeAdvanceAndSet)",
	"ledger.Ledger.InjectSyncFault": "fsync-failure seam of the fail-closed tests (TestAppendFailureFailsClosed)",
	"soak.Run":                      "the storm's entry point; `make soak` runs it as TestSoakStorm",

	// Paper mechanisms that unit tests show.
	"accounting.Server.AllocateQuota":       "§4 quota allocation; TestQuotaAllocateRelease",
	"accounting.Server.ReleaseQuota":        "§4 quota release; TestQuotaAllocateRelease",
	"accounting.Server.CashiersCheck":       "§4 cashier's check; TestCashiersCheck",
	"accounting.Server.ReleaseExpiredHolds": "§4 a hold on an uncashed check expires; TestExpiredHoldsReleased",
	"kerberos.Server.MutualReply":           "§6.2 mutual authentication of the AP exchange; TestLoginAndAPExchange",
	"kerberos.VerifyMutualReply":            "§6.2 mutual authentication of the AP exchange; TestLoginAndAPExchange",
	"kerberos.Proxy.Cascade":                "§6.2 cascaded Kerberos proxy; TestProxyCascadeAccumulates",
	"kerberos.Server.VerifyProxy":           "§6.2 end server verifies a Kerberos proxy; TestProxyGrantPresentVerify",

	// Deferred to a sweep of the bank, ledger and replication packages.
	"accounting.Server.AccountACL":         "deferred: read only by TestCreateAccountValidation and TestConcurrentTransfersConserve",
	"accounting.Server.UncollectedBalance": "deferred: read only by the clearing tests (TestCrossBankClearing)",
	"ledger.ScanOffsets":                   "deferred: read only by the ledger corruption tests",
	"ledger.Ledger.LastSnapshotError":      "deferred: read only by TestSnapshotterBacksOffOnFailure",
	"repl.IsFenced":                        "deferred: read only by the fencing tests (TestPromoteFencesDeposedPrimary)",
}

// TestExportInventory fails on an exported function, or exported method
// of an exported type, declared in a non-test file under internal/ that
// no non-test file of the module or of perfbench/ references and that
// uncalledAllowed does not list. References are matched by name: a
// function by `pkg.Func` (or a bare `Func` inside its own package), a
// method by any `.Method` selector. That can miss dead code but never
// flags a used export. An allow-list entry that names nothing, or
// something now referenced, fails too, so the list only shrinks.
func TestExportInventory(t *testing.T) {
	files := parseGoFiles(t, ".")
	pkgName := make(map[string]string) // import path -> package name
	for _, f := range files {
		if !f.test {
			pkgName["proxykit/"+f.dir] = f.ast.Name.Name
		}
	}

	type export struct{ dir, recv, name string }
	var exports []export
	funcRefs := make(map[string]bool)   // "<dir>.<Func>"
	methodRefs := make(map[string]bool) // "<Method>"
	for _, f := range files {
		if f.test {
			continue
		}
		if strings.HasPrefix(f.dir, "internal/") {
			for _, decl := range f.ast.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				recv := ""
				if fn.Recv != nil {
					recv = recvTypeName(fn.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
				}
				exports = append(exports, export{f.dir, recv, fn.Name.Name})
			}
		}
		imports := make(map[string]string) // local name -> repository dir
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(path, "proxykit/")
			if !ok {
				continue
			}
			local := pkgName[path]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = dir
		}
		declared := make(map[*ast.Ident]bool) // a declaration's own name is no reference
		for _, decl := range f.ast.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				declared[fn.Name] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				methodRefs[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						funcRefs[dir+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					funcRefs[f.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	seen := make(map[string]bool)
	for _, e := range exports {
		key := strings.TrimPrefix(e.dir, "internal/") + "." + e.name
		used := funcRefs[e.dir+"."+e.name]
		if e.recv != "" {
			key = strings.TrimPrefix(e.dir, "internal/") + "." + e.recv + "." + e.name
			used = methodRefs[e.name] || interfaceMethods[e.name]
		}
		seen[key] = true
		_, allowed := uncalledAllowed[key]
		switch {
		case !used && !allowed:
			t.Errorf("%s is exported but no non-test code references it: delete it, move it into the test that uses it, or allow-list it with a reason", key)
		case used && allowed:
			t.Errorf("%s is on the allow-list but non-test code now references it; drop the entry", key)
		}
	}
	for key := range uncalledAllowed {
		if !seen[key] {
			t.Errorf("allow-list entry %s names no exported function or method; drop it", key)
		}
	}
	if len(exports) < 100 {
		t.Fatalf("found only %d exports under internal/; the walker is stale", len(exports))
	}
}

// recvTypeName returns the type name of a method receiver: T for T,
// *T, T[K] and *T[K].
func recvTypeName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
