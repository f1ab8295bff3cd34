package lightflow

import (
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/driver"
)

// TestTablesResolve checks the source and sink tables against the module's
// real declarations: every key must name a declared function or method, and
// every listed sink argument must be a *sta.Timing parameter. A table entry
// for a deleted or renamed function would otherwise match nothing and
// silently check nothing.
func TestTablesResolve(t *testing.T) {
	pkgPaths := map[string]bool{}
	for key := range sources {
		pkgPaths[funcPkg(key)] = true
	}
	for key := range sinks {
		pkgPaths[funcPkg(key)] = true
	}
	var paths []string
	for p := range pkgPaths {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	exports, err := driver.ExportData(".", paths...)
	if err != nil {
		t.Fatal(err)
	}
	imp := importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	declared := map[string]*types.Func{}
	for _, path := range paths {
		pkg, err := imp.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				declared[obj.FullName()] = obj
			case *types.TypeName:
				mset := types.NewMethodSet(types.NewPointer(obj.Type()))
				for i := 0; i < mset.Len(); i++ {
					fn := mset.At(i).Obj().(*types.Func)
					declared[fn.FullName()] = fn
				}
			}
		}
	}

	for key := range sources {
		if declared[key] == nil {
			t.Errorf("source %s is not a declared function", key)
		}
	}
	for key, args := range sinks {
		fn := declared[key]
		if fn == nil {
			t.Errorf("sink %s is not a declared function", key)
			continue
		}
		params := fn.Type().(*types.Signature).Params()
		for _, i := range args {
			if i >= params.Len() {
				t.Errorf("sink %s: argument %d out of range (%d parameters)", key, i, params.Len())
				continue
			}
			if got := params.At(i).Type().String(); got != "*"+timingPath {
				t.Errorf("sink %s: argument %d is %s, want *%s", key, i, got, timingPath)
			}
		}
	}
}

// funcPkg returns the package path of a (*types.Func).FullName key such as
// "repro/internal/core.NewAllocator" or "(*repro/internal/sta.Analyzer).RunLight".
func funcPkg(key string) string {
	key = strings.TrimLeft(key, "(*")
	slash := strings.LastIndex(key, "/")
	return key[:slash+strings.Index(key[slash:], ".")]
}
