package tcl

// UseTreeWalker switches in to the classic tree-walking evaluator
// (walker_test.go), the differential oracle the VM is checked against.
// It exists only in test builds: production interpreters run the VM.
func UseTreeWalker(in *Interp) { in.walker = (*Interp).treeExec }
