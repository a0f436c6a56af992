package tcl

import "testing"

// BenchmarkTcl_EngineCompare runs identical workloads under the tree
// walker (the test-only oracle) and the bytecode VM in one process.
// The tclvm bench gate
// computes the speedup from the two sub-benchmarks of a single run, so
// machine noise cancels instead of being baked into an absolute
// nanosecond threshold.
func BenchmarkTcl_EngineCompare(b *testing.B) {
	engines := []struct {
		name string
		tree bool
	}{
		{"tree", true},
		{"bytecode", false},
	}
	for _, eng := range engines {
		b.Run("prime-factors-60/"+eng.name, func(b *testing.B) {
			in := New()
			if eng.tree {
				UseTreeWalker(in)
			}
			_, err := in.Eval(`proc pf {n} {
				set result {}
				for {set d 2} {$d <= $n} {incr d} {
					while {[expr $n % $d] == 0} {lappend result $d; set n [expr $n / $d]}
				}
				return $result
			}`)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err := in.Eval("pf 60"); err != nil || res != "2 2 3 5" {
					b.Fatalf("%q %v", res, err)
				}
			}
		})
		b.Run("proc-call/"+eng.name, func(b *testing.B) {
			in := New()
			if eng.tree {
				UseTreeWalker(in)
			}
			if _, err := in.Eval("proc f {a b} {expr {$a+$b}}"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Eval("f 3 4"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
