package plotter

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"wafe/internal/xproto"
	"wafe/internal/xt"
)

func newApp(t *testing.T) (*xt.App, *xt.Widget) {
	t.Helper()
	app := xt.NewTestApp("wafe")
	top, err := app.CreateWidget("topLevel", xt.ApplicationShellClass, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return app, top
}

func TestBarGraphValues(t *testing.T) {
	app, top := newApp(t)
	bg, err := app.CreateWidget("bars", BarGraphClass, top, map[string]string{"data": "1 4 2.5 8"}, true)
	if err != nil {
		t.Fatal(err)
	}
	vs := Values(bg)
	if len(vs) != 4 || vs[3] != 8 {
		t.Errorf("values = %v", vs)
	}
	top.Realize()
	app.Pump()
	// A fill op per bar plus the background clear appears in the log.
	ops := bg.Display().DrawLogFor(bg.Window())
	fills := 0
	for _, op := range ops {
		if op.Kind == xproto.OpFillRect {
			fills++
		}
	}
	if fills < 5 { // background + 4 bars
		t.Errorf("fill ops = %d", fills)
	}
	// Streaming new data redraws.
	if err := bg.SetValues(map[string]string{"data": "9 9"}); err != nil {
		t.Fatal(err)
	}
	if len(Values(bg)) != 2 {
		t.Error("data update lost")
	}
}

func TestBarGraphBadData(t *testing.T) {
	app, top := newApp(t)
	bg, _ := app.CreateWidget("b", BarGraphClass, top, map[string]string{"data": "1 oops"}, true)
	if Values(bg) != nil {
		t.Error("bad data should yield nil")
	}
	top.Realize()
	app.Pump() // must not panic
	_ = app
}

func TestLineGraphSeries(t *testing.T) {
	app, top := newApp(t)
	lg, _ := app.CreateWidget("lines", LineGraphClass, top, map[string]string{
		"data": "1 2 3\n4 5 6",
	}, true)
	series := SeriesOf(lg)
	if len(series) != 2 || series[1][2] != 6 {
		t.Errorf("series = %v", series)
	}
	top.Realize()
	app.Pump()
	ops := lg.Display().DrawLogFor(lg.Window())
	lines := 0
	for _, op := range ops {
		if op.Kind == xproto.OpDrawLine {
			lines++
		}
	}
	if lines != 4 { // 2 segments per 3-point series
		t.Errorf("line ops = %d", lines)
	}
}

func TestGraphLayoutLevels(t *testing.T) {
	app, top := newApp(t)
	g, _ := app.CreateWidget("g", GraphClass, top, map[string]string{
		"edges": "Core-Simple Simple-Label Label-Command Core-Composite",
	}, true)
	pos := NodePositions(g)
	if len(pos) != 5 {
		t.Fatalf("nodes = %v", pos)
	}
	if pos["Core"][1] >= pos["Simple"][1] {
		t.Error("Core should be above Simple")
	}
	if pos["Simple"][1] >= pos["Label"][1] {
		t.Error("Simple should be above Label")
	}
	if pos["Label"][1] >= pos["Command"][1] {
		t.Error("Label should be above Command")
	}
	if pos["Composite"][1] != pos["Simple"][1] {
		t.Error("Composite and Simple share level 1")
	}
	top.Realize()
	app.Pump()
	texts := g.Display().StringsDrawn(g.Window())
	if len(texts) != 5 {
		t.Errorf("node labels drawn = %v", texts)
	}
}

func TestGraphCycleIsSafe(t *testing.T) {
	app, top := newApp(t)
	g, _ := app.CreateWidget("g", GraphClass, top, map[string]string{"edges": "a-b b-a"}, true)
	pos := NodePositions(g)
	if len(pos) != 2 {
		t.Errorf("cycle positions = %v", pos)
	}
	top.Realize()
	app.Pump()
}

// refParseSeries is the series parser the scanner replaced:
// strings.Fields, then strconv.ParseFloat per field.
func refParseSeries(s string) ([]float64, error) {
	fields := strings.Fields(s)
	out := make([]float64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("plotter: bad data point %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// refSeriesOf is SeriesOf before the scanner.
func refSeriesOf(data string) [][]float64 {
	var out [][]float64
	for _, line := range strings.Split(data, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		vs, err := refParseSeries(line)
		if err != nil || len(vs) == 0 {
			continue
		}
		out = append(out, vs)
	}
	return out
}

// seriesDiff compares two parses bit for bit, nil-ness included.
func seriesDiff(got, want []float64) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%v (nil %t), reference %v (nil %t)", got, got == nil, want, want == nil)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("value %d: %v (%#x), reference %v (%#x)", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

func checkSeries(t *testing.T, s string) {
	t.Helper()
	got, err := parseSeries(s)
	want, werr := refParseSeries(s)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Errorf("parseSeries(%q): error %v, reference %v", s, err, werr)
	}
	if d := seriesDiff(got, want); d != "" {
		t.Errorf("parseSeries(%q): %s", s, d)
	}
	gs, ws := seriesOf(s), refSeriesOf(s)
	if (gs == nil) != (ws == nil) || len(gs) != len(ws) {
		t.Fatalf("seriesOf(%q) = %v, reference %v", s, gs, ws)
	}
	for i := range gs {
		if d := seriesDiff(gs[i], ws[i]); d != "" {
			t.Errorf("seriesOf(%q) series %d: %s", s, i, d)
		}
	}
}

var seriesCorpus = []string{
	"",
	" \n ",
	"1 4 2.5 8",
	"1 oops",
	"1 2 3\n4 5 6",
	"1 2\n\nx y\n3\n",
	"-0 +0 0 -00 +7 007",
	"-", "+", "-+1", "1-",
	"123456789012345 -999999999999999 1234567890123456 9007199254740993 18446744073709551617",
	"1e5 .5 5. 0x1p-2 inf -Inf NaN nan -1e-400",
	"1_000", "1e400",
	"1 2 3　4\u0085 5\x856",
	"\t1\v2\f3\r\n4",
	"12 873 4 0\n99 1 2 3\n5 6 7 8\n1 2 3 4",
}

func TestParseSeriesReference(t *testing.T) {
	for _, s := range seriesCorpus {
		checkSeries(t, s)
	}
}

// FuzzParseSeries checks the one-pass series scanner against
// strings.Fields + strconv.ParseFloat: identical float64 bits and an
// identical nil/error outcome, per series and for the whole data.
func FuzzParseSeries(f *testing.F) {
	for _, s := range seriesCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkSeries(t, s)
	})
}
