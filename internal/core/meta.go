package core

import (
	"sync"

	"wafe/internal/tcl"
	"wafe/internal/xt"
)

// This file records command metadata (tcl.CommandMeta) for every
// command the Wafe core registers, mirroring each implementation's
// own arity check. The wafecheck linter builds its command table from
// this registry; the creation commands additionally set Usage so the
// central enforcement in the interpreter produces the standard
// "wrong # args" message for them.

// coreMetas mirrors the arity checks in commands.go, obs_commands.go
// and rdd_commands.go. VarArgs marks output-variable positions
// (listShowCurrent writes its second argument) so the checker knows
// the variable is defined afterwards.
var coreMetas = []tcl.CommandMeta{
	// widget life cycle (Xt)
	{Name: "realize", MinArgs: 0, MaxArgs: 1},
	{Name: "destroyWidget", MinArgs: 1, MaxArgs: 1},
	{Name: "manageChild", MinArgs: 1, MaxArgs: 1},
	{Name: "unmanageChild", MinArgs: 1, MaxArgs: 1},
	{Name: "setSensitive", MinArgs: 2, MaxArgs: 2},
	{Name: "isRealized", MinArgs: 1, MaxArgs: 1},
	{Name: "isManaged", MinArgs: 1, MaxArgs: 1},
	{Name: "nameToWidget", MinArgs: 2, MaxArgs: 2},
	{Name: "translateCoords", MinArgs: 3, MaxArgs: 3},
	{Name: "installAccelerators", MinArgs: 2, MaxArgs: 2},
	{Name: "widgetChildren", MinArgs: 1, MaxArgs: 1},
	{Name: "widgetParent", MinArgs: 1, MaxArgs: 1},
	{Name: "widgetClass", MinArgs: 1, MaxArgs: 1},

	// resources
	{Name: "setValues", MinArgs: 1, MaxArgs: -1},
	{Name: "sV", MinArgs: 1, MaxArgs: -1},
	{Name: "sv", MinArgs: 1, MaxArgs: -1},
	{Name: "getValue", MinArgs: 2, MaxArgs: 2},
	{Name: "gV", MinArgs: 2, MaxArgs: 2},
	{Name: "getValues", MinArgs: 2, MaxArgs: -1},
	{Name: "mergeResources", MinArgs: 2, MaxArgs: -1},
	{Name: "getResourceList", MinArgs: 2, MaxArgs: 2, VarArgs: []int{2}},

	// callbacks and actions
	{Name: "callback", MinArgs: 3, MaxArgs: -1},
	{Name: "addCallback", MinArgs: 3, MaxArgs: 3},
	{Name: "removeAllCallbacks", MinArgs: 2, MaxArgs: 2},
	{Name: "hasCallbacks", MinArgs: 2, MaxArgs: 2},
	{Name: "callCallbacks", MinArgs: 2, MaxArgs: 2},
	{Name: "action", MinArgs: 3, MaxArgs: -1},

	// popups
	{Name: "popup", MinArgs: 1, MaxArgs: 2},
	{Name: "popdown", MinArgs: 1, MaxArgs: 1},

	// timeouts
	{Name: "addTimeOut", MinArgs: 2, MaxArgs: 2},
	{Name: "removeTimeOut", MinArgs: 1, MaxArgs: 1},

	// selections
	{Name: "ownSelection", MinArgs: 3, MaxArgs: 3},
	{Name: "disownSelection", MinArgs: 2, MaxArgs: 2},
	{Name: "getSelectionValue", MinArgs: 2, MaxArgs: 3},

	// Athena programmatic equivalents
	{Name: "listHighlight", MinArgs: 2, MaxArgs: 2},
	{Name: "listUnhighlight", MinArgs: 1, MaxArgs: 1},
	{Name: "listChange", MinArgs: 2, MaxArgs: 3},
	{Name: "listShowCurrent", MinArgs: 2, MaxArgs: 2, VarArgs: []int{2}},
	{Name: "dialogGetValueString", MinArgs: 1, MaxArgs: 1},
	{Name: "scrollbarSetThumb", MinArgs: 3, MaxArgs: 3},
	{Name: "formAllowResize", MinArgs: 2, MaxArgs: 2},
	{Name: "stripChartSample", MinArgs: 2, MaxArgs: 2},
	{Name: "stripChartStart", MinArgs: 1, MaxArgs: 1},
	{Name: "stripChartStop", MinArgs: 1, MaxArgs: 1},
	{Name: "viewportSetLocation", MinArgs: 3, MaxArgs: 3},
	{Name: "viewportSetCoordinates", MinArgs: 3, MaxArgs: 3},

	// Motif programmatic equivalents
	{Name: "mCascadeButtonHighlight", MinArgs: 2, MaxArgs: 2},
	{Name: "mCommandAppendValue", MinArgs: 2, MaxArgs: 2},
	{Name: "mTextInsert", MinArgs: 2, MaxArgs: 2},

	// application control
	{Name: "quit", MinArgs: 0, MaxArgs: 1},
	{Name: "sync", MinArgs: 0, MaxArgs: 0},
	{Name: "backend", MinArgs: 0, MaxArgs: 0},

	// headless event synthesis and inspection
	{Name: "sendClick", MinArgs: 1, MaxArgs: 4},
	{Name: "sendKeys", MinArgs: 2, MaxArgs: 2},
	{Name: "sendExpose", MinArgs: 1, MaxArgs: 5},
	{Name: "warpPointer", MinArgs: 2, MaxArgs: 2},
	{Name: "focusWidget", MinArgs: 1, MaxArgs: 1},
	{Name: "widgetList", MinArgs: 0, MaxArgs: 0},
	{Name: "widgetTree", MinArgs: 0, MaxArgs: 1},
	{Name: "snapshot", MinArgs: 0, MaxArgs: 1},
	{Name: "writeImage", MinArgs: 2, MaxArgs: 2},
	{Name: "displayList", MinArgs: 0, MaxArgs: 0},

	// observability
	{Name: "statistics", MinArgs: 0, MaxArgs: 1},
	{Name: "traceOn", MinArgs: 0, MaxArgs: 1},
	{Name: "traceOff", MinArgs: 0, MaxArgs: 0},
	{Name: "trace", MinArgs: 1, MaxArgs: 2, Subcommands: []string{"spans", "tree", "clear"}},
	{Name: "metricsDump", MinArgs: 0, MaxArgs: 1},
	{Name: "profileOn", MinArgs: 0, MaxArgs: 0},
	{Name: "profileOff", MinArgs: 0, MaxArgs: 0},
	{Name: "profileDump", MinArgs: 0, MaxArgs: 2, Options: []string{"-folded"}},

	// drag and drop
	{Name: "rddRegisterSource", MinArgs: 2, MaxArgs: 2},
	{Name: "rddRegisterTarget", MinArgs: 2, MaxArgs: 2},
	{Name: "rddUnregisterSource", MinArgs: 1, MaxArgs: 1},
	{Name: "rddUnregisterTarget", MinArgs: 1, MaxArgs: 1},
	{Name: "rddDrag", MinArgs: 2, MaxArgs: 2},
}

// setMetas holds one shared metadata table per widget set
// (WidgetSet → *setMetaTable). The first instance configuring a set
// builds it; every later one adopts it copy-on-write.
var setMetas sync.Map

type setMetaTable struct {
	once  sync.Once
	table tcl.MetaTable
}

// registerCommandMetas records metadata for the fixed command set and
// for every widget-creation command of the configured widget set. The
// table depends only on the widget set, so it is built once per set and
// shared; each instance still wraps its own creation commands (closures
// over this instance) with arity enforcement.
func (w *Wafe) registerCommandMetas() {
	v, ok := setMetas.Load(w.cfg.Set)
	if !ok {
		v, _ = setMetas.LoadOrStore(w.cfg.Set, new(setMetaTable))
	}
	s := v.(*setMetaTable)
	built := false
	s.once.Do(func() {
		w.buildCommandMetas()
		s.table = w.Interp.ShareCommandMetas()
		built = true
	})
	if !built {
		w.Interp.AdoptCommandMetas(s.table)
	}
}

// buildCommandMetas fills the interp's table. Creation commands (except
// those colliding with a Tcl builtin, like the List widget's "list")
// set Usage, so arity is enforced centrally with the exact message
// cmdCreateWidget itself produces.
func (w *Wafe) buildCommandMetas() {
	for _, m := range coreMetas {
		w.Interp.SetCommandMeta(m)
	}
	for cmdName := range w.classes {
		meta := tcl.CommandMeta{
			Name:    cmdName,
			MinArgs: 2,
			MaxArgs: -1,
			Options: []string{"-unmanaged", "unmanaged"},
		}
		if _, isBuiltin := w.Interp.LookupMeta(cmdName); !isBuiltin {
			meta.Usage = cmdName + " name father ?-unmanaged? ?resource value ...?"
		} else {
			// Colliding names ("list") dispatch on the father argument at
			// runtime; keep the builtin's metadata.
			continue
		}
		w.Interp.SetCommandMeta(meta)
	}
}

// CreationClasses returns a copy of the creation-command → widget
// class table for the configured widget set (static analysis reads
// it to validate resource names per class).
func (w *Wafe) CreationClasses() map[string]*xt.Class {
	out := make(map[string]*xt.Class, len(w.classes))
	for name, c := range w.classes {
		out[name] = c
	}
	return out
}
