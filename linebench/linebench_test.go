package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestStreamIsDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a, b := streamHash(wl, 7, 500), streamHash(wl, 7, 500)
		if a != b {
			t.Errorf("%s: seed 7 hashed %s, then %s", wl.name, a, b)
		}
		if c := streamHash(wl, 8, 500); c == a {
			t.Errorf("%s: seeds 7 and 8 give the same stream %s", wl.name, a)
		}
		t.Logf("%s seed 7: %s", wl.name, a)
	}
}

func TestFactorReference(t *testing.T) {
	for n, want := range map[int64]string{2: "2", 12: "2 2 3", 97: "97", 360: "2 2 2 3 3 5", 1000003: "1000003", 2 * 100003: "2 100003"} {
		if got := factorString(n); got != want {
			t.Errorf("factorString(%d) = %q, want %q", n, got, want)
		}
	}
	c := newCompute(1).(*compute)
	primes := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if !strings.Contains(c.next().want, " ") {
			primes++
		}
	}
	// The prime share must stay well above 1% for p99 to land inside it.
	if share := float64(primes) / n; share < 0.04 || share > 0.09 {
		t.Errorf("prime share %.3f, want about %.3f", share, primeShare)
	}
}

func TestQuantileIsExact(t *testing.T) {
	s := make([]float64, 2000)
	for i := range s {
		s[len(s)-1-i] = float64(i + 1)
	}
	if got := median(s); got != 1000 {
		t.Errorf("median = %v, want 1000", got)
	}
	p99, err := tailQuantile("x", s, 0.99)
	if err != nil || p99 != 1980 {
		t.Errorf("p99 = %v, %v; want 1980", p99, err)
	}
	if _, err := tailQuantile("x", s[:999], 0.99); err == nil {
		t.Error("p99 over 999 samples leaves 9 beyond it and must fail")
	}
}

func TestQuietKeepsLeastStolen(t *testing.T) {
	for _, c := range []struct {
		steal []int64
		want  string
	}{
		{[]int64{0, 0, 0, 0}, "1111"},
		{[]int64{3, 1, 2, 1, 5, 1, 4, 2}, "01010100"}, // every interval with the least steal
		{[]int64{2, 3, 1, 4, 5, 6, 7, 8}, "10100000"}, // at least a quarter
		{[]int64{1, 1, 1, 1, 1, 1, 1, 0}, "10000001"}, // ties in run order
		{[]int64{2, 1, 1, 1, 1, 1, 1, 0}, "01000001"},
	} {
		got := ""
		for _, q := range quiet(c.steal) {
			got += map[bool]string{false: "0", true: "1"}[q]
		}
		if got != c.want {
			t.Errorf("quiet(%v) = %s, want %s", c.steal, got, c.want)
		}
	}
}

// contract reads the metric names and units BENCHMARK.json declares.
func contract(t *testing.T) (endToEnd, perLayer map[string]string, workloadNames []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

// TestShortRunsEmitEveryMetric builds wafe and runs every workload
// briefly, untraced and traced, from the repository root.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds wafe and runs every workload")
	}
	endToEnd, perLayer, names := contract(t)
	var ours []string
	for _, wl := range workloads {
		ours = append(ours, wl.name)
	}
	sort.Strings(ours)
	sort.Strings(names)
	if strings.Join(ours, " ") != strings.Join(names, " ") {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", ours, names)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, wl := range workloads {
		// A churn op takes about a millisecond, and the end-to-end phase
		// of a traced run (two fifths of it) needs over 1000 ops for a p99.
		secs := "4"
		if wl.perSession {
			secs = "10"
		}
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			var out bytes.Buffer
			args := []string{"--workload", wl.name, "--seed", "3", "--seconds", secs, "--trace", []string{"0", "1"}[trace]}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace %d: %v\n%s", wl.name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s", wl.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json declares %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", wl.name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace %d: %s in %q, BENCHMARK.json says %q", wl.name, trace, name, m.Unit, unit)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, name, m.Value)
				}
			}
			for name := range tableOnly {
				if trace == 0 && !strings.Contains(out.String(), "\n"+name+" ") {
					t.Errorf("%s: the table lacks %s", wl.name, name)
				}
			}
		}
	}
}
