// Command linebench measures what one backend interaction costs on
// wafe's full line path. It builds ./cmd/wafe, starts it as
// `wafe --serve unix:<sock>` and plays the backend over a real AF_UNIX
// stream socket, one closed-loop connection at a time. End-to-end
// metrics come from that untraced run; with --trace 1 the same seeded
// op stream also runs in process against frontend.Session, timing the
// calls into each layer's public functions, which gives the per-layer
// metrics. Run it from the repository root:
//
//	bash linebench/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds everything the benchmark builds and writes.
const outDir = ".bench_build"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "linebench:", err)
		os.Exit(1)
	}
}

// benchEnv is what every run records about where it ran.
type benchEnv struct {
	root        string
	wafeBin     string
	nproc       int
	serverProcs int
	commit      string
}

func (e *benchEnv) out(name string) string { return filepath.Join(e.root, outDir, name) }

// tableOnly metrics are printed with their unit and sample count but
// left out of the JSON result, which holds exactly the metrics
// BENCHMARK.json declares. failed_frac is 0 on a correct program (the
// result's failed and attempted carry it). op_p99_us and ops_per_s,
// which is the inverse of the mean latency, follow the tail: they move
// by up to a factor of two between runs while the hypervisor steals
// time from the whole machine, so no bound can gate them.
var tableOnly = map[string]bool{"failed_frac": true, "op_p99_us": true, "ops_per_s": true}

type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("linebench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: dashboard, interact, compute or churn")
	seed := fl.Int64("seed", 1, "seed of the generated op stream")
	seconds := fl.Int("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced in-process run")
	if err := fl.Parse(args); err != nil {
		return err
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	// One thread for the end-to-end client: its loop is sequential, and
	// a single P keeps linebench's own scheduler from adding run-to-run
	// spread. The in-process passes of --trace 1 switch to the server's
	// value, so the program runs there under the scheduler and GC
	// configuration it has when served.
	runtime.GOMAXPROCS(1)

	env, err := setupEnv()
	if err != nil {
		return err
	}
	dur := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "env workload=%s seed=%d seconds=%d trace=%d nproc=%d client_gomaxprocs=%d inproc_gomaxprocs=%d server_gomaxprocs=%d go=%s commit=%s transport=%q stream_sha256=%s\n",
		wl.name, *seed, *seconds, *trace, env.nproc, runtime.GOMAXPROCS(0), env.serverProcs, env.serverProcs,
		runtime.Version(), env.commit, "AF_UNIX stream socket", streamHash(wl, *seed, 1000))

	var ms []metric
	res := result{}
	if *trace == 0 {
		ms, err = endToEnd(env, wl, *seed, dur, &res, stdout)
	} else {
		ms, err = perLayer(env, wl, *seed, dur, &res, stdout)
	}
	if err != nil {
		return err
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]jsonMetric{}
	fmt.Fprintf(stdout, "%-34s %16s %-8s %s\n", "metric", "value", "unit", "samples")
	for _, m := range ms {
		fmt.Fprintf(stdout, "%-34s %16.4f %-8s n=%d\n", m.name, m.value, m.unit, m.n)
		if !tableOnly[m.name] {
			res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

// setupEnv builds the wafe binary from the checkout and records the
// environment.
func setupEnv() (*benchEnv, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "wafe")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	env := &benchEnv{root: root, nproc: runtime.NumCPU()}
	env.serverProcs = env.nproc
	if err := os.MkdirAll(filepath.Join(root, outDir), 0o755); err != nil {
		return nil, err
	}
	env.wafeBin = env.out("wafe")
	build := exec.Command("go", "build", "-buildvcs=false", "-o", env.wafeBin, "./cmd/wafe")
	build.Dir = root
	build.Stdout = os.Stderr
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("build wafe: %w", err)
	}
	env.commit = gitHead(root)
	return env, nil
}

// gitHead reads the checked-out commit without running git; a checkout
// that is not a repository records "none".
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == ref {
			return id
		}
	}
	return "unknown"
}

func problems(w io.Writer, what string, ps []string) {
	for _, p := range ps {
		fmt.Fprintf(w, "FAIL %s: %s\n", what, p)
	}
}

// segMinOps is the fewest ops a segment of the timed phase holds:
// enough that its p99 has more than minTail samples beyond it.
const segMinOps = 1200

// segment is a stretch of the timed phase between two marks, measured
// from its own raw samples.
type segment struct {
	ops                           int
	p50, p99, opsPerS, cpuUSPerOp float64
	steal                         int64 // machine-wide steal ticks
}

// segments cuts the timed phase at marks into stretches of at least
// segMinOps ops; a short remainder joins the last one.
func segments(e *e2eResult) ([]segment, error) {
	bounds := []int{0}
	for i := 1; i < len(e.marks); i++ {
		if e.marks[i].ops-e.marks[bounds[len(bounds)-1]].ops >= segMinOps {
			bounds = append(bounds, i)
		}
	}
	if last := len(e.marks) - 1; bounds[len(bounds)-1] != last {
		if len(bounds) > 1 {
			bounds[len(bounds)-1] = last
		} else {
			bounds = append(bounds, last)
		}
	}
	var out []segment
	for i := 1; i < len(bounds); i++ {
		a, b := e.marks[bounds[i-1]], e.marks[bounds[i]]
		n := b.ops - a.ops
		samples := append([]float64(nil), e.opUS[a.ops:b.ops]...)
		p99, err := tailQuantile("op_p99_us", samples, 0.99)
		if err != nil {
			return nil, err
		}
		out = append(out, segment{
			ops:        n,
			p50:        median(samples),
			p99:        p99,
			opsPerS:    float64(n) / b.t.Sub(a.t).Seconds(),
			cpuUSPerOp: float64(b.cpu-a.cpu) * 1e6 / clockTicks / float64(n),
			steal:      b.steal - a.steal,
		})
	}
	return out, nil
}

// quiet reports which of a run's intervals (timed-phase segments, or
// set-up rounds) are quiet: every interval with the run's least
// machine-wide steal time, and at least the quietest quarter, ties
// taken in run order. On a calm host that is nearly every interval
// (most have no steal), on a busy one the quarter the hypervisor
// disturbed least.
func quiet(steal []int64) []bool {
	order := make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	out := make([]bool, len(steal))
	for rank, i := range order {
		out[i] = rank < (len(steal)+3)/4 || steal[i] == steal[order[0]]
	}
	return out
}

// setupTime is the median set-up time over the quiet set-up rounds, and
// how many rounds that is. Every round is printed with its steal.
func setupTime(e *e2eResult, w io.Writer) (float64, int) {
	var kept []float64
	fmt.Fprint(w, "set-up rounds ms/steal_ticks:")
	for i, q := range quiet(e.setupSteal) {
		fmt.Fprintf(w, " %.2f/%d", e.setupS[i]*1e3, e.setupSteal[i])
		if q {
			kept = append(kept, e.setupS[i])
		}
	}
	fmt.Fprintf(w, "\n%d set-up rounds, %d quiet\n", len(e.setupS), len(kept))
	return median(kept), len(kept)
}

// timing is what the end-to-end metrics read from a run's timed phase.
type timing struct {
	p50, p99, opsPerS, cpuUSPerOp float64
	samples                       int // ops in the quiet segments
}

// measure reduces a timed phase to its timing: each rate and timing is
// the median over the quiet segments. On a shared virtual machine the
// hypervisor preempts both processes at times (steal time in
// /proc/stat); the segments it preempted most show multi-millisecond
// tails and lower throughput that belong to the host, not to wafe. The
// choice looks at steal alone, never at the measured values, and every
// segment is printed with its steal.
func measure(e *e2eResult, w io.Writer) (timing, error) {
	if len(e.opUS) == 0 {
		return timing{}, errors.New("no op completed end to end")
	}
	all, err := segments(e)
	if err != nil {
		return timing{}, err
	}
	steal := make([]int64, len(all))
	for i, s := range all {
		steal[i] = s.steal
	}
	var segs []segment
	for i, q := range quiet(steal) {
		if q {
			segs = append(segs, all[i])
		}
	}
	col := func(f func(segment) float64) float64 {
		v := make([]float64, len(segs))
		for i, s := range segs {
			v[i] = f(s)
		}
		return median(v)
	}
	t := timing{
		p50:        col(func(s segment) float64 { return s.p50 }),
		p99:        col(func(s segment) float64 { return s.p99 }),
		opsPerS:    col(func(s segment) float64 { return s.opsPerS }),
		cpuUSPerOp: col(func(s segment) float64 { return s.cpuUSPerOp }),
	}
	fmt.Fprintf(w, "%d segments, %d quiet; ops/p50_us/p99_us/ops_per_s/cpu_us_per_op/steal_ticks:", len(all), len(segs))
	for _, s := range all {
		fmt.Fprintf(w, " %d/%.1f/%.1f/%.0f/%.1f/%d", s.ops, s.p50, s.p99, s.opsPerS, s.cpuUSPerOp, s.steal)
	}
	fmt.Fprint(w, "\nop_us whole run:")
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		fmt.Fprintf(w, " p%g=%.1f", p*100, quantile(e.opUS, p))
	}
	fmt.Fprintln(w)
	if len(e.byKind) > 1 {
		total := sum(e.opUS)
		kinds := make([]string, 0, len(e.byKind))
		for k := range e.byKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprint(w, "op kinds, whole run:")
		for _, k := range kinds {
			us := e.byKind[k]
			fmt.Fprintf(w, " %s n=%d p50_us=%.1f share_of_op_time=%.1f%%", k, len(us), median(us), 100*sum(us)/total)
		}
		fmt.Fprintln(w)
	}
	for _, s := range segs {
		t.samples += s.ops
	}
	return t, nil
}

// endToEnd is the untraced out-of-process run.
func endToEnd(env *benchEnv, wl workload, seed int64, dur time.Duration, res *result, w io.Writer) ([]metric, error) {
	e, err := runE2E(env, wl, seed, dur)
	if err != nil {
		return nil, err
	}
	problems(w, "e2e", e.problems)
	res.Attempted, res.Failed = e.attempted, e.failed
	t, err := measure(e, w)
	if err != nil {
		return nil, err
	}
	setupS, setupN := setupTime(e, w)
	n := t.samples
	return []metric{
		{"setup_s", setupS, "s", setupN},
		{"op_p50_us", t.p50, "us", n},
		{"op_p99_us", t.p99, "us", n},
		{"ops_per_s", t.opsPerS, "1/s", n},
		{"server_cpu_us_per_op", t.cpuUSPerOp, "us", n},
		{"server_rss_peak_mb", float64(e.rssKB) / 1024, "MB", 1},
		{"failed_frac", float64(e.failed) / float64(max(e.attempted, 1)), "ratio", e.attempted},
	}, nil
}

// hitRatio is a cache's hits over its lookups, with the lookups as its
// sample count.
func hitRatio(name string, c map[string]int64, cache string) metric {
	hits, lookups := c[cache+".hits"], c[cache+".hits"]+c[cache+".misses"]
	return metric{name, ratio(float64(hits), float64(lookups)), "ratio", int(lookups)}
}

// coreCmds are the wrapped commands reported one by one; creation
// commands are summed as "create".
var coreCmds = []string{"sV", "gV", "echo", "stripChartSample", "create", "realize", "quit", "sendClick", "sendKeys"}

// sessionSamples is how many idle sessions the session-cost pass holds.
const sessionSamples = 16

// perLayer runs a shorter end-to-end phase (for the unattributed
// time), then the unwrapped, counting and traced in-process passes
// over the same op stream, a compile pass and a session-cost pass.
func perLayer(env *benchEnv, wl workload, seed int64, dur time.Duration, res *result, w io.Writer) ([]metric, error) {
	e, err := runE2E(env, wl, seed, dur*2/5)
	if err != nil {
		return nil, err
	}
	problems(w, "e2e", e.problems)
	et, err := measure(e, w)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(env.serverProcs)
	// The traced pass keeps its spans in memory: maxTraced bounds them
	// to a few MB while leaving far more than minTail lines beyond p99.
	// Counts per op settle within maxCounted ops.
	const maxOps, maxTraced, maxCounted = 200000, 10000, 2000
	plain, err := runPass(wl, seed, dur/5, maxOps, modePlain)
	if err != nil {
		return nil, err
	}
	counts, err := runPass(wl, seed, dur/10, maxCounted, modeCounted)
	if err != nil {
		return nil, err
	}
	traced, err := runPass(wl, seed, dur/5, maxTraced, modeTraced)
	if err != nil {
		return nil, err
	}
	defer traced.free()
	res.Attempted, res.Failed = e.attempted, e.failed
	for _, ps := range []struct {
		what string
		r    *passResult
	}{{"in-process", plain}, {"counted", counts}, {"traced", traced}} {
		problems(w, ps.what, ps.r.p.problems)
		res.Attempted += ps.r.p.ops
		res.Failed += ps.r.p.failed
		if ps.r.p.ops == 0 {
			return nil, fmt.Errorf("no op completed in the %s pass", ps.what)
		}
	}

	tp := traced.p
	ops := float64(tp.ops)
	spansPath := env.out("spans-" + wl.name + ".tsv")
	if err := tp.tr.write(spansPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans %s (%d spans, %d ops)\n", spansPath, len(tp.tr.spans), tp.ops)
	self := tp.tr.selfTimes()
	for _, line := range layerTable(self, tp.ops) {
		fmt.Fprintln(w, line)
	}

	lineUS := tp.tr.durations(spanLine)
	lineP99, err := tailQuantile("frontend.line_us.p99", lineUS, 0.99)
	if err != nil {
		return nil, err
	}
	newUS, closeUS, allocKB, heldKB, err := sessionCost(sessionSamples)
	if err != nil {
		return nil, err
	}
	plainP50 := median(plain.opUS)
	tracedP50 := median(traced.opUS)
	perOp := func(ns float64) float64 { return ns / 1e3 / ops }
	c, cops := counts.p.counters, float64(counts.p.ops)
	requests := int64(0)
	for k, v := range c {
		if strings.HasPrefix(k, "xproto.requests.") {
			requests += v
		}
	}
	d := counts.p.dispatch
	spec := float64(d.SpecializedTotal())
	coreSelf := 0.0
	for k, v := range self {
		if strings.HasPrefix(k, cmdPrefix) {
			coreSelf += v
		}
	}
	n := tp.ops
	ms := []metric{
		{"frontend.line_us.p50", median(lineUS), "us", len(lineUS)},
		{"frontend.line_us.p99", lineP99, "us", len(lineUS)},
		{"frontend.reply_lines_per_op", float64(plain.p.replyLines) / float64(plain.p.ops), "count", plain.p.ops},
		{"frontend.reply_bytes_per_op", float64(plain.p.replyBytes) / float64(plain.p.ops), "B", plain.p.ops},
		{"frontend.unattributed_us", et.p50 - plainP50, "us", et.samples},
		{"frontend.session_new_us", newUS, "us", sessionSamples},
		{"frontend.session_close_us", closeUS, "us", sessionSamples},
		{"frontend.session_alloc_kb", allocKB, "KiB", sessionSamples},
		{"frontend.session_heap_kb", heldKB, "KiB", sessionSamples},
		{"frontend.self_us_per_op", perOp(self[spanReply] + self[spanSessionNew] + self[spanSessionClose]), "us", n},
		{"tcl.self_us_per_op", perOp(self[spanLine]), "us", n},
		{"tcl.compile_us_per_op", compileUS(wl, seed, min(n, 2000)), "us", min(n, 2000)},
		hitRatio("tcl.script_cache_hit_ratio", c, "tcl.script_cache"),
		hitRatio("tcl.expr_cache_hit_ratio", c, "tcl.expr_cache"),
		{"tcl.specialized_ratio", ratio(spec, spec+float64(d.Invoke)), "ratio", int(spec) + int(d.Invoke)},
		{"tcl.cmds_per_op", (spec + float64(d.Invoke)) / cops, "count", counts.p.ops},
		{"core.self_us_per_op", perOp(coreSelf), "us", n},
	}
	for _, name := range coreCmds {
		ms = append(ms, metric{"core.cmd_us." + name, perOp(self[cmdPrefix+name]), "us", n})
	}
	clipped, full := float64(c["xt.redraw_clipped"]), float64(c["xt.redraw_full"])
	ms = append(ms,
		metric{"xt.pump_us_per_op", perOp(self[spanPump] + self[spanRedisplay]), "us", n},
		metric{"xt.redisplay_us_per_op", perOp(self[spanRedisplay]), "us", n},
		metric{"xt.events_per_op", float64(c["xt.events_dispatched"]) / cops, "count", counts.p.ops},
		metric{"xt.actions_per_op", float64(c["xt.actions_fired"]) / cops, "count", counts.p.ops},
		metric{"xt.callbacks_per_op", float64(c["xt.callbacks_fired"]) / cops, "count", counts.p.ops},
		metric{"xt.redraw_clipped_ratio", ratio(clipped, clipped+full), "ratio", int(clipped + full)},
		metric{"xproto.requests_per_op", float64(requests) / cops, "count", counts.p.ops},
		metric{"xproto.damage_rects_per_op", float64(c["xproto.damage_rects"]) / cops, "count", counts.p.ops},
		metric{"xproto.exposes_coalesced_per_op", float64(c["xproto.exposes_coalesced"]) / cops, "count", counts.p.ops},
		metric{"runtime.alloc_kb_per_op", float64(plain.allocBytes) / 1024 / float64(plain.p.ops), "KiB", plain.p.ops},
		metric{"runtime.allocs_per_op", float64(plain.mallocs) / float64(plain.p.ops), "count", plain.p.ops},
		metric{"runtime.gc_cycles_per_kop", float64(plain.gcs) * 1000 / float64(plain.p.ops), "count", plain.p.ops},
		metric{"bench.inproc_op_p50_us", plainP50, "us", plain.p.ops},
		metric{"bench.trace_overhead_pct", 100 * (tracedP50 - plainP50) / plainP50, "%", n},
		metric{"bench.loop_us_per_op", perOp(self[spanOp]), "us", n},
	)
	return ms, nil
}
