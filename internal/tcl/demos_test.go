package tcl_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wafe/internal/core"
	"wafe/internal/tcl"
)

// TestDemoScriptsEngineDifferential runs every demo script once under
// the tree-walking oracle and once under the bytecode VM, each in a
// full Wafe instance, and asserts the two executions are
// indistinguishable: same result, same error, same puts/echo output,
// same exit state. Together with the in-package oracle suite (corpus,
// bug-sweep goldens, randomized scripts) this is the acceptance proof
// that the VM matches the walker's semantics on the shipped program
// corpus.
func TestDemoScriptsEngineDifferential(t *testing.T) {
	demos, err := filepath.Glob("../../demos/*.wafe")
	if err != nil || len(demos) == 0 {
		t.Fatalf("no demos found: %v", err)
	}
	type outcome struct {
		result, errStr, output string
		quit                   bool
		exitCode               int
	}
	run := func(t *testing.T, src string, tree bool) outcome {
		w := core.NewTest()
		if tree {
			tcl.UseTreeWalker(w.Interp)
		}
		dc := w.Interp.CountDispatch()
		res, err := w.Eval(src)
		// The VM's dispatch counters prove which engine actually ran.
		if vm := dc.Invoke+dc.SpecializedTotal() > 0; vm == tree {
			t.Errorf("tree=%v but VM dispatch counters are %+v", tree, *dc)
		}
		o := outcome{
			result:   res,
			output:   w.Interp.Output(),
			quit:     w.QuitRequested(),
			exitCode: w.ExitCode(),
		}
		if err != nil {
			o.errStr = err.Error()
		}
		return o
	}
	for _, demo := range demos {
		demo := demo
		t.Run(filepath.Base(demo), func(t *testing.T) {
			data, err := os.ReadFile(demo)
			if err != nil {
				t.Fatalf("reading %s: %v", demo, err)
			}
			src := string(data)
			// Strip the interpreter line the way file mode does.
			if strings.HasPrefix(src, "#!") {
				if nl := strings.IndexByte(src, '\n'); nl >= 0 {
					src = src[nl+1:]
				}
			}
			tree := run(t, src, true)
			vm := run(t, src, false)
			if tree != vm {
				t.Errorf("engines disagree:\ntree: %+v\nvm:   %+v", tree, vm)
			}
			if tree.output == "" && tree.errStr == "" {
				t.Errorf("demo produced no output and no error; differential run is vacuous")
			}
		})
	}
}
