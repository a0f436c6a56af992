package frontend

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"wafe/internal/core"
	"wafe/internal/tcl"
)

// newBareSession builds a private-display session with no backend and
// no event loop; the test evaluates on it directly.
func newBareSession(t testing.TB, set core.WidgetSet) *Session {
	t.Helper()
	s, err := NewSession(SessionConfig{Set: set, PrivateDisplay: true, Terminal: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionSharedSubstrate: sessions share the keymap and, per widget
// set, the command-metadata table, yet a write in one session never
// shows in another — neither in a sibling nor in a session created
// after the write. Under -race it also proves the shared tables are
// only read once built, however many sessions are constructed at once.
func TestSessionSharedSubstrate(t *testing.T) {
	creators := map[core.WidgetSet][]string{
		core.SetAthena: {"label", "asciiText"},
		core.SetMotif:  {"mLabel", "mText"},
		core.SetBoth:   {"label", "mText"},
	}
	const perSet = 4
	sessions := map[core.WidgetSet][]*Session{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for set := range creators {
		for i := 0; i < perSet; i++ {
			wg.Add(1)
			go func(set core.WidgetSet) {
				defer wg.Done()
				s := newBareSession(t, set)
				mu.Lock()
				sessions[set] = append(sessions[set], s)
				mu.Unlock()
			}(set)
		}
	}
	wg.Wait()
	for _, ss := range sessions {
		for _, s := range ss {
			t.Cleanup(s.Close)
		}
	}

	for set, cmds := range creators {
		ss := sessions[set]
		for _, s := range ss[:2] {
			for _, cmd := range cmds {
				_, err := s.W.Interp.Eval(cmd + " onlyName")
				want := fmt.Sprintf("wrong # args: should be %q", cmd+" name father ?-unmanaged? ?resource value ...?")
				if err == nil || err.Error() != want {
					t.Errorf("set %d session %s: %s with too few args: err = %v, want %q", set, s.ID, cmd, err, want)
				}
			}
		}
		if a, b := ss[0].W.Interp.CommandMetas(), ss[1].W.Interp.CommandMetas(); !reflect.DeepEqual(a, b) {
			t.Errorf("set %d: sessions %s and %s disagree on CommandMetas", set, ss[0].ID, ss[1].ID)
		}
	}

	// Writes through every mutating path in one session stay there.
	set := core.SetBoth
	writer, sibling := sessions[set][2], sessions[set][3]
	before := sibling.W.Interp.CommandMetas()
	wi := writer.W.Interp
	wi.SetCommandMeta(tcl.CommandMeta{Name: "label", MinArgs: 5, MaxArgs: 5, Usage: "label changed"})
	wi.SetCommandMeta(tcl.CommandMeta{Name: "brandNew", MinArgs: 0, MaxArgs: 0})
	wi.UnregisterCommand("sV")
	if _, err := wi.Eval("rename realize realizeRenamed"); err != nil {
		t.Fatal(err)
	}
	if _, err := wi.Eval("label x"); err == nil || err.Error() != `wrong # args: should be "label changed"` {
		t.Errorf("writer's own meta change not applied: err = %v", err)
	}
	if _, ok := wi.LookupMeta("sV"); ok {
		t.Error("UnregisterCommand left the writer's sV meta in place")
	}
	later := newBareSession(t, set)
	defer later.Close()
	for _, s := range []*Session{sibling, later} {
		in := s.W.Interp
		if got := in.CommandMetas(); !reflect.DeepEqual(got, before) {
			t.Errorf("session %s: CommandMetas changed by a write in session %s", s.ID, writer.ID)
		}
		if _, ok := in.LookupMeta("brandNew"); ok {
			t.Errorf("session %s sees session %s's new meta", s.ID, writer.ID)
		}
		if !in.HasCommand("sV") || !in.HasCommand("realize") || in.HasCommand("realizeRenamed") {
			t.Errorf("session %s: command table touched by session %s's unregister/rename", s.ID, writer.ID)
		}
		want := `wrong # args: should be "label name father ?-unmanaged? ?resource value ...?"`
		if _, err := in.Eval("label x"); err == nil || err.Error() != want {
			t.Errorf("session %s: label with too few args: err = %v, want %q", s.ID, err, want)
		}
	}

	// One keymap for every display, and it still types.
	a, b := sessions[core.SetAthena][2], sessions[core.SetAthena][3]
	if ka, kb := a.W.App.Display().Keymap(), b.W.App.Display().Keymap(); ka != kb {
		t.Errorf("displays of sessions %s and %s hold different keymaps", a.ID, b.ID)
	}
	for _, s := range []*Session{a, b} {
		for _, script := range []string{"asciiText in topLevel editType edit width 120", "realize", "sendKeys in w!"} {
			if _, err := s.W.Eval(script); err != nil {
				t.Fatalf("session %s: %s: %v", s.ID, script, err)
			}
		}
		if got, err := s.W.Eval("gV in string"); err != nil || got != "w!" {
			t.Errorf("session %s typed %q (err %v), want \"w!\"", s.ID, got, err)
		}
	}
}

// TestSessionAllocBudget holds session construction to the shared
// substrate diet: a SetBoth session (built, then closed) and a whole
// churn-style lifecycle each stay under a fixed allocation budget. The
// race detector's instrumentation inflates allocations, so the budget
// applies only without it.
func TestSessionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are not meaningful under -race")
	}
	newClose := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newBareSession(b, core.SetBoth).Close()
		}
	}
	churn := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := newBareSession(b, core.SetAthena)
			for _, script := range []string{
				"form f topLevel",
				"label l f label {abcd}",
				"command b f fromVert l label {efgh} callback {echo ijkl}",
				"asciiText t f fromVert b editType edit string {mnop}",
				"realize",
			} {
				if _, err := s.W.Eval(script); err != nil {
					b.Fatal(err)
				}
			}
			s.Close()
		}
	}
	// Build the per-process substrate before measuring.
	newBareSession(t, core.SetBoth).Close()
	newBareSession(t, core.SetAthena).Close()
	for _, c := range []struct {
		name   string
		fn     func(*testing.B)
		budget int64
	}{
		{"NewSession+Close", newClose, 64 << 10},
		{"churn lifecycle", churn, 128 << 10},
	} {
		r := testing.Benchmark(c.fn)
		if got := r.AllocedBytesPerOp(); got > c.budget {
			t.Errorf("%s allocates %d B/op (%d allocs/op), budget %d B", c.name, got, r.AllocsPerOp(), c.budget)
		} else {
			t.Logf("%s: %d B/op, %d allocs/op (budget %d B)", c.name, got, r.AllocsPerOp(), c.budget)
		}
	}
}
