package qla_test

// A dead-declaration gate: every top-level declaration under internal/
// must be referenced from some non-test file of the module or of
// perfbench/, outside its own body. A declaration only tests reach
// belongs in a _test.go file; one nothing reaches is deleted. The scan
// is syntactic (go/parser and go/ast, with the parser's per-file
// identifier resolution), so it is cheap and errs towards "used": a
// method counts as used when any selector of its name exists, other than
// a package-qualified name of this module (circuit.Idle, the op, is no
// use of the method Circuit.Idle). A field or method of another type that
// shares a method's name still counts (the Overlapped result fields hide
// core.Machine.Overlapped); telling those apart needs the receiver's
// type, that is go/types. A local variable that shares a package-level
// name is not a use of it.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAllowed names the declarations under internal/ that no non-test
// code reaches but that stay in non-test code, each with the reason.
// A key is "dir.Name" or "dir.Type.Method"; a bare dir allows a whole
// package.
var deadAllowed = map[string]string{
	// Oracles, inspection helpers and seams that tests of live code in
	// other packages use.
	"internal/faultinject":                     "the fault-injection harness of the serve and sweep failure tests",
	"internal/stabilizer.State.SameState":      "tableau-equality oracle of the pauliframe and codes tests",
	"internal/threshold.SingleFaultTrialBatch": "forced-fault seam: the batch-vs-scalar tests and the golden site census",
	"internal/pauli.String.Embed":              "builds the checked operators of the steane, teleport and stabilizer tests",
	"internal/pauli.String.EqualUpToPhase":     "logical-operator comparison of the codes tests",
	"internal/pauliframe.Batch.DirtyLanes":     "lane inspection of the noise batch tests",
	"internal/pauliframe.Frame.IsClean":        "frame inspection of the noise tests",
	"internal/pauliframe.Frame.Pauli":          "frame inspection of the noise tests",
	"internal/circuit.Circuit.Idle":            "builds the idle-error circuit of the noise tests",
	"internal/circuit.Circuit.PrepPlus":        "builds the Bell-pair circuits of the noise tests and the facade's qla_test.go",

	// Checks of statements the paper makes, kept until a
	// paper-fidelity ledger takes them over.
	"internal/teleport.LinkParams.CompareTransport":        "the paper's second contribution: simplistic teleportation fails with distance, the repeater interconnect does not",
	"internal/teleport.BallisticBreakevenCells":            "the distance past which ballistic movement breaks the failure budget and teleportation takes over",
	"internal/teleport.LinkParams.SimplisticCollapseCells": "the distance at which an unrepeated EPR pair drops below the purification boundary",
	"internal/ft.CheckDecoherence":                         "the memory lifetime supports the EC-step cadence of Equation 1",
	"internal/ft.AlgorithmLifetimes":                       "a Shor run spans many ion lifetimes, so error correction, not memory, carries it",
	"internal/ft.RequiredLevel":                            "Equation 2 needs recursion level 2 for Shor-1024",
	"internal/shor.ModexpWithPipeline":                     "Section 5's Toffoli pipeline: 15 + 6 = 21 EC steps per Toffoli",
	"internal/shor.PaperShareFraction":                     "the ancilla-sharing rate that reproduces Section 5's 21 steps per Toffoli",
	"internal/control.ClassicalHeadroom":                   "Section 6: classical control runs orders of magnitude faster than the quantum latencies",
	"internal/layout.Floorplan.Islands":                    "Section 4.2's island placement on the channel grid",
	"internal/layout.IslandsPerQubitX":                     "Section 4.2: an island at every third and tenth logical qubit",
	"internal/layout.IslandSpacingShort":                   "Section 4.2's 100-cell island separation (Figure 9)",
	"internal/layout.IslandSpacingLong":                    "Section 4.2's 350-cell island separation (Figure 9)",
	"internal/layout.Floorplan.MaxDistanceCells":           "Section 4.2's worst-case communication span of 60 cm and more",
	"internal/qccd.Sim.RouteCorners":                       "the ballistic design rule of at most two turns per move",
	"internal/commsim.ResourceCurve":                       "the exponential resource overhead of end-to-end purification that motivates repeaters",
}

// stdMethods are method names that satisfy standard-library interfaces,
// which callers reach through the interface rather than a selector.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// scanPackage is one directory's non-test files.
type scanPackage struct {
	dir   string // slash path relative to the module root
	name  string // package name
	files []*ast.File
}

// scanDecl is one top-level declaration under internal/.
type scanDecl struct {
	pkg        *scanPackage
	recv, name string // recv is empty for all but methods
	file       *ast.File
	node       ast.Node // its own body: uses inside it do not count
}

func (d scanDecl) key() string {
	if d.recv != "" {
		return d.pkg.dir + "." + d.recv + "." + d.name
	}
	return d.pkg.dir + "." + d.name
}

// scanUse is one reference to a name, at a position in a file.
type scanUse struct {
	file *ast.File
	pos  token.Pos
}

func TestNoDeadDeclarations(t *testing.T) {
	fset := token.NewFileSet()
	var pkgs []*scanPackage
	byPath := map[string]*scanPackage{} // import path -> package
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		importPath := path.Join("qla", dir)
		pkg := byPath[importPath]
		if pkg == nil {
			pkg = &scanPackage{dir: dir, name: f.Name.Name}
			byPath[importPath] = pkg
			pkgs = append(pkgs, pkg)
		}
		pkg.files = append(pkg.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls []scanDecl
	bare := map[string][]scanUse{}      // "dir.Name" -> references within dir
	qualified := map[string][]scanUse{} // "dir.Name" -> pkg.Name references from elsewhere
	selectors := map[string][]scanUse{} // Name -> x.Name selectors anywhere
	for _, pkg := range pkgs {
		internal := strings.HasPrefix(pkg.dir, "internal/")
		for _, f := range pkg.files {
			if internal {
				decls = append(decls, fileDecls(pkg, f)...)
			}
			imports := map[string]string{} // local name -> dir of an in-module package
			for _, spec := range f.Imports {
				target := byPath[strings.Trim(spec.Path.Value, `"`)]
				if target == nil {
					continue
				}
				local := target.name
				if spec.Name != nil {
					local = spec.Name.Name
				}
				imports[local] = target.dir
			}
			unresolved := map[*ast.Ident]bool{}
			for _, id := range f.Unresolved {
				unresolved[id] = true
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// A receiver names its type without using it.
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.SelectorExpr:
					use := scanUse{f, n.Sel.Pos()}
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
						if dir, ok := imports[x.Name]; ok {
							key := dir + "." + n.Sel.Name
							qualified[key] = append(qualified[key], use)
							return false
						}
					}
					selectors[n.Sel.Name] = append(selectors[n.Sel.Name], use)
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					// A package-level name: declared in another file of
					// the package (unresolved here) or at this file's top
					// level. Locals, fields and selectors resolve
					// elsewhere or not at all.
					if (n.Obj == nil && unresolved[n]) || (n.Obj != nil && f.Scope.Lookup(n.Name) == n.Obj) {
						key := pkg.dir + "." + n.Name
						bare[key] = append(bare[key], scanUse{f, n.Pos()})
					}
				}
				return true
			}
			for _, decl := range f.Decls {
				ast.Inspect(decl, visit)
			}
		}
	}

	outside := func(d scanDecl, uses []scanUse) bool {
		for _, u := range uses {
			if u.file != d.file || u.pos < d.node.Pos() || u.pos >= d.node.End() {
				return true
			}
		}
		return false
	}
	dead := map[string]bool{}
	for _, d := range decls {
		var used bool
		if d.recv != "" {
			used = stdMethods[d.name] || outside(d, selectors[d.name])
		} else {
			key := d.pkg.dir + "." + d.name
			used = outside(d, bare[key]) || outside(d, qualified[key])
		}
		if !used {
			dead[d.key()] = true
		}
	}

	var unlisted []string
	for key := range dead {
		if _, ok := deadAllowed[key]; ok {
			continue
		}
		if _, ok := deadAllowed[key[:strings.IndexByte(key, '.')]]; ok {
			continue
		}
		unlisted = append(unlisted, key)
	}
	sort.Strings(unlisted)
	for _, key := range unlisted {
		t.Errorf("%s: no non-test code references it; delete it, or move it into a _test.go file if only tests use it", key)
	}
	for key := range deadAllowed {
		if !dead[key] && byPath[path.Join("qla", key)] == nil {
			t.Errorf("deadAllowed lists %s, which is not an unreferenced declaration; remove the entry", key)
		}
	}
}

// fileDecls lists f's top-level declarations, except init, main and
// blank names.
func fileDecls(pkg *scanPackage, f *ast.File) []scanDecl {
	var out []scanDecl
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			name := decl.Name.Name
			if decl.Recv == nil && (name == "init" || name == "main") {
				continue
			}
			d := scanDecl{pkg: pkg, name: name, file: f, node: decl}
			if decl.Recv != nil {
				d.recv = recvName(decl.Recv.List[0].Type)
			}
			out = append(out, d)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					out = append(out, scanDecl{pkg: pkg, name: spec.Name.Name, file: f, node: spec})
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.Name != "_" {
							out = append(out, scanDecl{pkg: pkg, name: id.Name, file: f, node: spec})
						}
					}
				}
			}
		}
	}
	return out
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(expr ast.Expr) string {
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
