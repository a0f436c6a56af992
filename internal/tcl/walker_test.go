package tcl

import (
	"fmt"
	"time"
)

// treeExec is the classic tree-walking evaluator: substitute each
// command's words, dispatch, repeat. Kept bug-for-bug stable, it is
// the differential oracle the VM is checked against (oracle_test.go,
// demos_test.go, the profiler differential); UseTreeWalker routes an
// interpreter's evaluation here.
func (in *Interp) treeExec(s *Script) (Value, error) {
	var result Value
	for _, cmd := range s.cmds {
		argv, err := in.substWords(cmd.words)
		if err != nil {
			return Value{}, err
		}
		if len(argv) == 0 {
			continue
		}
		var res string
		if in.prof != nil {
			res, err = in.profInvoke(s, cmd, argv)
		} else {
			res, err = in.invoke(argv)
		}
		result = strVal(res)
		if err != nil {
			if in.nesting == 1 {
				// The error reached the top level: finish the
				// traceback (or start it, for a top-level error).
				in.recordErrorInfo(err, fmt.Sprintf("while executing %q", argv[0]))
				in.errorUnwinding = false
			}
			return result, err
		}
	}
	if s.parseErr != nil {
		// The incremental evaluator runs every command preceding a
		// malformed one before reporting the parse error; replay that.
		return Value{}, s.parseErr
	}
	return result, nil
}

// profInvoke is invoke wrapped in the profiler's activation record, the
// walker's counterpart of the VM's profDispatch.
func (in *Interp) profInvoke(s *Script, cmd *parsedCommand, argv []string) (string, error) {
	prof := in.prof
	in.profCmdChild = append(in.profCmdChild, 0)
	start := time.Now()
	res, err := in.invoke(argv)
	in.profCharge(prof, true, argv[0], s, cmd.words[0].pos, time.Since(start))
	return res, err
}
