package frontend

import (
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wafe/internal/core"
	"wafe/internal/tcl"
)

// dashSetup builds a netstats-style dashboard: a bar graph, a line
// graph with a four-series history, a strip chart and a status label.
var dashSetup = []string{
	"%form top topLevel",
	"%label title top label {network statistics} borderWidth 0",
	"%barGraph bars top fromVert title width 240 height 80 data {0 0 0 0} labels {ln0 le0 lo0 sl0} showValues true",
	"%lineGraph hist top fromVert bars width 240 height 60 gridLines 2",
	"%stripChart chart top fromVert hist width 240 height 40",
	"%label status top fromVert chart label {idle} width 240",
	"%realize",
}

// dashStream generates the protocol lines a streaming backend sends
// per sample: the bar data, a 4×60-sample history word with escaped
// newlines (about 930 bytes, unique per sample), a strip chart
// sample, a status label and an echo. Almost every line is unique.
type dashStream struct {
	rng  *rand.Rand
	hist [4][60]int
	head int
	n    int
}

func newDashStream(seed int64) *dashStream {
	d := &dashStream{rng: rand.New(rand.NewSource(seed))}
	for s := range d.hist {
		for i := range d.hist[s] {
			d.hist[s][i] = d.rng.Intn(1000)
		}
	}
	return d
}

// next returns the lines of one sample.
func (d *dashStream) next() []string {
	var now [4]int
	total := 0
	b := []byte("%sV bars data {")
	for s := range now {
		now[s] = d.rng.Intn(1000)
		total += now[s]
		d.hist[s][d.head] = now[s]
		if s > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(now[s]), 10)
	}
	d.head = (d.head + 1) % len(d.hist[0])
	bars := string(append(b, '}'))
	b = []byte(`%sV hist data "`)
	for s := range d.hist {
		if s > 0 {
			b = append(b, `\n`...)
		}
		for i := range d.hist[s] {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(d.hist[s][(d.head+i)%len(d.hist[s])]), 10)
		}
	}
	hist := string(append(b, '"'))
	n := strconv.Itoa(d.n)
	d.n++
	tot := strconv.Itoa(total)
	return []string{
		bars,
		hist,
		"%stripChartSample chart " + tot,
		"%sV status label {r" + n + " total " + tot + "}",
		"%echo r" + n,
	}
}

func newDashSession(t testing.TB) *Session {
	t.Helper()
	s, err := NewSession(SessionConfig{
		PrivateDisplay: true,
		Opts:           &Options{Prefix: '%', LineLimit: DefaultLineLimit, AppName: "wafe"},
		Terminal:       io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.W.Interp.Stdout = func(string) {}
	for _, line := range dashSetup {
		s.F.HandleAppLine(line)
	}
	if s.F.EvalErrors != 0 {
		t.Fatalf("dashboard set-up: %d eval errors", s.F.EvalErrors)
	}
	return s
}

// feedDash plays n samples of the stream into s, the way the event
// loop does: each line, then a pump of the app.
func feedDash(s *Session, d *dashStream, n int) {
	for i := 0; i < n; i++ {
		for _, line := range d.next() {
			s.F.HandleAppLine(line)
		}
		s.W.App.Pump()
	}
}

func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStreamingSessionHeldBudget bounds what a streaming session keeps
// after its data has been drawn: 2,000 unique ~930-byte history lines
// pass through, and once they are garbage the session may hold at most
// heldBudget more live heap than before them. One-shot lines must not
// stay behind as interned Scripts or their compiled Programs.
func TestStreamingSessionHeldBudget(t *testing.T) {
	const heldBudget = 256 << 10
	s := newDashSession(t)
	defer s.Close()
	d := newDashStream(1)
	// A few samples build what every later one reuses: display
	// lists, widget resources, the Scripts of the repeating lines. The
	// one-shot lines that follow must leave nothing behind.
	feedDash(s, d, 5)
	before := heapInUse()
	feedDash(s, d, 2000)
	after := heapInUse()
	runtime.KeepAlive(s)
	if s.F.EvalErrors != 0 {
		t.Fatalf("%d eval errors while streaming", s.F.EvalErrors)
	}
	held := int64(after) - int64(before)
	if held > heldBudget {
		t.Errorf("streaming session holds %d KiB more after 2000 samples, budget %d KiB (script cache %d entries)",
			held>>10, heldBudget>>10, s.W.Interp.ScriptCacheLen())
	} else {
		t.Logf("held after 2000 samples: %d KiB (budget %d KiB, script cache %d entries)",
			held>>10, heldBudget>>10, s.W.Interp.ScriptCacheLen())
	}
}

// TestSessionSharedScript evaluates one compiled Script from two
// sessions at once. A Script carries its compiled Program for the
// interpreter that first ran it; the other interpreter must neither
// race on that slot nor run a Program whose inline caches belong to
// someone else. Meaningful under -race.
func TestSessionSharedScript(t *testing.T) {
	script, err := tcl.Compile(`set n 0
for {set i 0} {$i < 20} {incr i} {incr n [string length [gV lbl label]]}
sV lbl label "n[expr {$n % 7}]"
set n`)
	if err != nil {
		t.Fatal(err)
	}
	sessions := []*Session{newBareSession(t, core.SetAthena), newBareSession(t, core.SetAthena)}
	for i, s := range sessions {
		defer s.Close()
		// Different label texts make a Program cached across the two
		// interpreters give a wrong answer, not just a data race.
		if _, err := s.W.Eval("label lbl topLevel label " + labelText(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"60", "80"}
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				if _, err := s.W.Eval("sV lbl label " + labelText(i)); err != nil {
					t.Error(err)
					return
				}
				got, err := s.W.EvalScript(script)
				if err != nil || got != want[i] {
					t.Errorf("session %d run %d: %q, %v; want %q", i, k, got, err, want[i])
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
}

// labelText is session i's label: 3+i bytes.
func labelText(i int) string { return strconv.Itoa(i) + strings.Repeat("x", i+2) }

// BenchmarkStreamingDashboard measures one dashboard sample (five
// lines and a pump) through a Session in process.
func BenchmarkStreamingDashboard(b *testing.B) {
	s := newDashSession(b)
	defer s.Close()
	d := newDashStream(1)
	feedDash(s, d, 50)
	b.ReportAllocs()
	b.ResetTimer()
	feedDash(s, d, b.N)
}
