package foodmatch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeSignatureOnly lists the facade aliases kept although no caller
// names them: a kept export's signature or exported field does, so
// deleting the alias would leave that export naming an internal type.
var facadeSignatureOnly = map[string]string{
	"Assignment":             "Policy.Assign returns it",
	"AssignmentDecision":     "AssignmentStreamEvent.Decision carries it",
	"AssignmentSubscription": "Engine.Subscribe returns it",
	"Batch":                  "Batcher.Batch returns it",
	"Batcher":                "WithBatcher takes it",
	"EngineShardMetrics":     "EngineMetrics.PerShard carries it",
	"ExperimentSetup":        "RunExperiment takes it",
	"GPSMatchOptions":        "NewGPSMatcher takes it",
	"GPSMatcher":             "NewGPSMatcher returns it",
	"GPSPing":                "SynthesizePings returns it",
	"HubLabels":              "NewHubLabels returns it",
	"Matcher":                "WithMatcher takes it",
	"ObsLog":                 "NewObsLog returns it",
	"ObsPhase":               "EngineRoundStats.Phases carries it",
	"OrderTraceEvent":        "Engine.TraceTail returns it",
	"Pipeline":               "NewPipeline returns it",
	"PipelineOption":         "NewPipeline takes it",
	"RoadSnapshot":           "SwapRouter.Publish takes it",
	"RoutePlan":              "Vehicle.Plan carries it",
	"Scenario":               "ParseScenario returns it",
	"Simulator":              "NewSimulator returns it",
	"SlotWeights":            "Graph.Reweighted takes it",
	"SpeedLearner":           "NewSpeedLearner returns it",
	"StreamLearnerStats":     "EngineRoadnetStatus.Learner carries it",
	"SwapRouter":             "NewSwapRouter returns it",
	"TraceEvent":             "TraceRecorder.Snapshot returns it",
	"WALOrderRecord":         "WALRecord.Order carries it",
	"WindowInput":            "Policy.Assign takes it",
}

// TestFacadeExportsHaveCallers holds foodmatch.go to its own rule: an export
// stays only if a program under cmd/, examples/ or bench/, or a root test,
// names it (or it is on facadeSignatureOnly).
func TestFacadeExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "foodmatch.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported = append(exported, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported = append(exported, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported = append(exported, n.Name)
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, dir := range []string{"cmd", "examples", "bench"} {
		err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
			if err != nil || de.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			facadeSelectors(f, used)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		if path == "facade_test.go" {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bareIdents(f, used)
	}

	declared := map[string]bool{}
	var orphans []string
	for _, name := range exported {
		declared[name] = true
		if !used[name] && facadeSignatureOnly[name] == "" {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("foodmatch.go exports %d names no caller uses: %s", len(orphans), strings.Join(orphans, ", "))
	}
	for name := range facadeSignatureOnly {
		if !declared[name] {
			t.Errorf("facadeSignatureOnly lists %s, which foodmatch.go no longer exports", name)
		} else if used[name] {
			t.Errorf("facadeSignatureOnly lists %s, which has a caller; drop it from the list", name)
		}
	}
}

// facadeSelectors records every foodmatch.X that f names through its import
// of the root package.
func facadeSelectors(f *ast.File, used map[string]bool) {
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "repro" {
			local = "foodmatch"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
}

// bareIdents records every unqualified identifier f uses, leaving out
// selector fields and composite-literal keys, which name members rather
// than package-level declarations.
func bareIdents(f *ast.File, used map[string]bool) {
	skip := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			skip[n.Sel] = true
		case *ast.KeyValueExpr:
			if k, ok := n.Key.(*ast.Ident); ok {
				skip[k] = true
			}
		case *ast.Ident:
			if !skip[n] {
				used[n.Name] = true
			}
		}
		return true
	})
}
