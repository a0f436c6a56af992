package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// An op is one closed-loop interaction: linebench writes req, waits
// for the reply line and checks it against want, then writes answer
// (lines a backend sends in response, not awaited).
type op struct {
	kind   string // which of a workload's op kinds, or "" if it has one
	req    []byte
	want   string
	answer []byte
}

// A stream generates one workload's ops from a seed. next reuses the
// op's buffers, so an op is valid only until the next call.
type stream interface {
	next() *op
	// final returns the closing read-back line and the reply it must
	// produce, or ok=false when the workload has none.
	final() (line, want string, ok bool)
}

// A workload names a stream and the lines that build its widget tree.
type workload struct {
	name string
	// setup is sent once per session before the first op; linebench
	// appends "%echo ready" and waits for it. Empty for churn, whose
	// ops build their own sessions.
	setup string
	// perSession marks churn: every op is a whole session lifecycle.
	perSession bool
	newStream  func(seed int64) stream
}

var workloads = []workload{
	{
		name: "dashboard",
		setup: `%form top topLevel
%label title top label {network statistics} borderWidth 0
%barGraph bars top fromVert title width 240 height 80 data {0 0 0 0} labels {ln0 le0 lo0 sl0} showValues true
%lineGraph hist top fromVert bars width 240 height 60 gridLines 2
%stripChart chart top fromVert hist width 240 height 40
%label status top fromVert chart label {idle} width 240
%realize
`,
		newStream: newDashboard,
	},
	{
		name: "interact",
		setup: `%form top topLevel
%asciiText input top editType edit width 200
%action input override {<Key>Return: exec(echo key [gV input string])}
%label result top label {} width 200 fromVert input
%command go top fromVert result callback {echo click %w}
%label info top fromVert result fromHoriz go label {} borderWidth 0 width 150
%realize
`,
		newStream: newInteract,
	},
	{
		name: "compute",
		setup: `%form top topLevel
%label result top label {} width 200
%realize
%proc factor n {set r {}; for {set d 2} {$d * $d <= $n} {incr d} {while {$n % $d == 0} {lappend r $d; set n [expr {$n / $d}]}}; if {$n > 1} {lappend r $n}; return $r}
`,
		newStream: newCompute,
	},
	{
		name:       "churn",
		perSession: true,
		newStream:  newChurn,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// streamHash hashes the first n ops of a stream: every byte linebench
// would write, and every reply it would expect.
func streamHash(wl workload, seed int64, n int) string {
	h := sha256.New()
	h.Write([]byte(wl.setup))
	s := wl.newStream(seed)
	for i := 0; i < n; i++ {
		o := s.next()
		h.Write(o.req)
		h.Write([]byte(o.want))
		h.Write([]byte{0})
		h.Write(o.answer)
	}
	if line, want, ok := s.final(); ok {
		h.Write([]byte(line + want))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- dashboard ---------------------------------------------------------

const (
	dashSeries  = 4
	dashHistory = 60
)

type dashboard struct {
	rng    *rand.Rand
	n      int
	hist   [dashSeries][dashHistory]int // ring buffers
	head   int
	status []byte
	o      op
}

func newDashboard(seed int64) stream {
	d := &dashboard{rng: rand.New(rand.NewSource(seed))}
	for s := range d.hist {
		for i := range d.hist[s] {
			d.hist[s][i] = d.rng.Intn(1000)
		}
	}
	return d
}

func (d *dashboard) next() *op {
	var now [dashSeries]int
	total := 0
	for s := range now {
		now[s] = d.rng.Intn(1000)
		total += now[s]
		d.hist[s][d.head] = now[s]
	}
	d.head = (d.head + 1) % dashHistory

	b := append(d.o.req[:0], "%sV bars data {"...)
	for s, v := range now {
		if s > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, "}\n%sV hist data \""...)
	for s := range d.hist {
		if s > 0 {
			b = append(b, `\n`...)
		}
		for i := 0; i < dashHistory; i++ {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(d.hist[s][(d.head+i)%dashHistory]), 10)
		}
	}
	b = append(b, "\"\n%stripChartSample chart "...)
	b = strconv.AppendInt(b, int64(total), 10)
	d.status = append(d.status[:0], 'r')
	d.status = strconv.AppendInt(d.status, int64(d.n), 10)
	d.status = append(d.status, " total "...)
	d.status = strconv.AppendInt(d.status, int64(total), 10)
	b = append(b, "\n%sV status label {"...)
	b = append(b, d.status...)
	b = append(b, "}\n%echo "...)
	start := len(b)
	b = append(b, 'r')
	b = strconv.AppendInt(b, int64(d.n), 10)
	d.o.want = string(b[start:])
	b = append(b, '\n')
	d.o.req = b
	d.n++
	return &d.o
}

func (d *dashboard) final() (string, string, bool) {
	return "%echo [gV status label]", string(d.status), d.n > 0
}

// --- interact ----------------------------------------------------------

// The interact session is examples/primefactors' widget tree with a
// "go" button in place of its quit button. A typed op does what that
// example's frontend does for each number: clear the input, type the
// number and Return. The Return action reports "key <digits>", and
// linebench answers the way the example's backend does: info
// "thinking...", the factors joined by "*" into result, then the
// seconds taken into info. Inputs have one to six digits, like the
// example's 360, 97, 1 and 123456.
//
// A click op presses the button, whose callback reports "click go",
// answered with one sV. The example has no such button; clicks are
// there so Xt's callback path is measured beside the translation and
// action path. clickShare is a chosen split, not one taken from the
// example; the end-to-end table prints each kind's count, p50 and share
// of op time.
const (
	clickShare     = 0.3
	interactDigits = 6
)

type interact struct {
	rng    *rand.Rand
	result string // factors last written into the result label
	typed  bool   // a number was typed, so result holds its factors
	o      op
}

func newInteract(seed int64) stream {
	return &interact{rng: rand.New(rand.NewSource(seed))}
}

func (it *interact) next() *op {
	if it.rng.Float64() < clickShare {
		it.o.kind = "click"
		it.o.req = append(it.o.req[:0], "%sendClick go\n"...)
		it.o.want = "click go"
		it.o.answer = append(it.o.answer[:0], "%sV info label {clicked}\n"...)
		return &it.o
	}
	n := int64(1 + it.rng.Intn(9))
	for i := it.rng.Intn(interactDigits); i > 0; i-- {
		n = n*10 + int64(it.rng.Intn(10))
	}
	it.o.kind = "type"
	b := append(it.o.req[:0], "%sV input string {}\n%sendKeys input \""...)
	b = strconv.AppendInt(b, n, 10)
	b = append(b, "\\r\"\n"...)
	it.o.req = b
	it.o.want = "key " + strconv.FormatInt(n, 10)
	it.result = strings.ReplaceAll(factorString(n), " ", "*")
	it.typed = true
	b = append(it.o.answer[:0], "%sV info label thinking...\n%sV result label {"...)
	b = append(b, it.result...)
	b = append(b, "}\n%sV info label {0 seconds}\n"...)
	it.o.answer = b
	return &it.o
}

func (it *interact) final() (string, string, bool) {
	return "%echo [gV result label]", it.result, it.typed
}

// --- compute -----------------------------------------------------------

// primeShare of compute ops factor a prime, which runs the trial
// division loop to the square root; the rest factor smooth numbers
// that finish after a few divisors. The prime share sits well above
// 1%, so op_p99_us lands inside the prime population.
const (
	primeShare = 1.0 / 16
	primeLo    = 100000
	primeHi    = 200000
)

var smallPrimes = []int64{2, 3, 5, 7, 11, 13}

type compute struct {
	rng    *rand.Rand
	result string
	o      op
}

func newCompute(seed int64) stream {
	return &compute{rng: rand.New(rand.NewSource(seed))}
}

func (c *compute) next() *op {
	var n int64
	if c.rng.Float64() < primeShare {
		n = int64(primeLo + c.rng.Intn(primeHi-primeLo))
		for !isPrime(n) {
			n++
		}
	} else {
		n = 1
		for k := 2 + c.rng.Intn(6); k > 0; k-- {
			n *= smallPrimes[c.rng.Intn(len(smallPrimes))]
		}
	}
	b := append(c.o.req[:0], "%sV result label [set f [factor "...)
	b = strconv.AppendInt(b, n, 10)
	b = append(b, "]]\n%echo $f\n"...)
	c.o.req = b
	c.result = factorString(n)
	c.o.want = c.result
	return &c.o
}

func (c *compute) final() (string, string, bool) {
	return "%echo [gV result label]", c.result, c.result != ""
}

func isPrime(n int64) bool {
	if n < 2 {
		return false
	}
	for d := int64(2); d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// factorString is the reference the frontend's factor proc is checked
// against: prime factors in ascending order, space separated.
func factorString(n int64) string {
	var b []byte
	for d := int64(2); d*d <= n; d++ {
		for n%d == 0 {
			if len(b) > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, d, 10)
			n /= d
		}
	}
	if n > 1 {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, n, 10)
	}
	return string(b)
}

// --- churn -------------------------------------------------------------

type churn struct {
	rng *rand.Rand
	o   op
}

func newChurn(seed int64) stream {
	return &churn{rng: rand.New(rand.NewSource(seed))}
}

// churnQuit ends a churn session once the op's reply arrived.
const churnQuit = "%quit\n"

func (c *churn) word() string {
	b := make([]byte, 3+c.rng.Intn(6))
	for i := range b {
		b[i] = byte('a' + c.rng.Intn(26))
	}
	return string(b)
}

func (c *churn) next() *op {
	c.o.req = fmt.Appendf(c.o.req[:0], `%%form f topLevel
%%label l f label {%s}
%%command b f fromVert l label {%s} callback {echo %s}
%%asciiText t f fromVert b editType edit string {%s}
%%realize
%%echo ready
`, c.word(), c.word(), c.word(), c.word())
	c.o.want = "ready"
	c.o.answer = append(c.o.answer[:0], churnQuit...)
	return &c.o
}

func (c *churn) final() (string, string, bool) { return "", "", false }
