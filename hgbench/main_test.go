package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"heterogen/internal/core"
	"heterogen/internal/litmus"
	"heterogen/internal/protocols"
)

func TestPercentileSampleRule(t *testing.T) {
	if got := minSamples(0.5); got != 20 {
		t.Errorf("p50 needs %d samples, want 20", got)
	}
	if got := minSamples(0.9); got != 100 {
		t.Errorf("p90 needs %d samples, want 100", got)
	}
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1, 0.5, false, 0},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{208, 0.9, true, 188},
	} {
		got, ok := percentile(samples(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestLatencyInfoPrintsOnlyAllowedPercentiles(t *testing.T) {
	single := newRecorder()
	single.beginPass(1)
	single.op(0, opTime{wall: time.Second}, nil)
	if info := strings.Join(single.latencyInfo(), " "); strings.Contains(info, "op_p") {
		t.Errorf("single-op run printed a percentile: %q", info)
	}
	many := newRecorder()
	many.beginPass(150)
	for i := 0; i < 150; i++ {
		many.op(i, opTime{wall: time.Duration(i+1) * time.Millisecond}, nil)
	}
	info := strings.Join(many.latencyInfo(), " ")
	for _, want := range []string{"op_p50_ms 75.000 (n=150)", "op_p90_ms 135.000 (n=150)"} {
		if !strings.Contains(info, want) {
			t.Errorf("latency info %q lacks %q", info, want)
		}
	}
}

// oneLitmusTest is a litmus-suite restricted to a single cheap test,
// checked against the given expectations.
func oneLitmusTest(t *testing.T, exp *expectations) *litmusSuite {
	t.Helper()
	f, err := core.Fuse(core.Options{}, protocols.MustByName(protocols.NameMESI), protocols.MustByName(protocols.NameRCCO))
	if err != nil {
		t.Fatal(err)
	}
	shape, _ := litmus.ShapeByName("MP")
	return &litmusSuite{exp: exp, tests: []litmusTest{{f, shape, []int{0, 1}}}}
}

func TestCorrectnessGate(t *testing.T) {
	exp, err := loadExpectations(expectedJSON, false)
	if err != nil {
		t.Fatal(err)
	}
	w := oneLitmusTest(t, exp)
	key := w.tests[0].key()
	if _, ok := exp.table["litmus-suite"][key]; !ok {
		t.Fatalf("expected.json has no entry for %s", key)
	}

	rec := newRecorder()
	rec.beginPass(w.ops())
	w.pass(context.Background(), nil, rec)
	if res, _ := rec.result(endToEnd, nil); !res.Correct || res.Attempted != 1 || res.Failed != 0 {
		t.Fatalf("recorded expectation: got %+v, want one correct op", res)
	}

	// Perturb the recorded state count: the same op must now fail.
	exp.table["litmus-suite"][key][0]++
	rec = newRecorder()
	rec.beginPass(w.ops())
	w.pass(context.Background(), nil, rec)
	if res, _ := rec.result(endToEnd, nil); res.Correct || res.Attempted != 1 || res.Failed != 1 {
		t.Fatalf("perturbed expectation: got %+v, want one failed op", res)
	}
}

func TestFastestSumsEachOpsBestPass(t *testing.T) {
	rec := newRecorder()
	for _, pass := range [][]opTime{
		{{wall: 10, cpu: 12}, {wall: 5, cpu: 9}},
		{{wall: 8, cpu: 14}, {wall: 7, cpu: 6}},
	} {
		rec.beginPass(len(pass))
		for i, t := range pass {
			rec.op(i, t, nil)
		}
	}
	if wall, cpu := rec.fastest(); wall != 8+5 || cpu != 12+6 {
		t.Errorf("fastest = %v, %v; want 13ns, 18ns", wall, cpu)
	}
	rec.fail(1, 0, errFake)
	if res, _ := rec.result(endToEnd, nil); res.Correct || res.Attempted != 4 || res.Failed != 1 {
		t.Errorf("after a late failure: %+v, want 4 attempted, 1 failed", res)
	}
}

var errFake = errors.New("fake")

func TestVerifyReportsMissingAndMismatchedValues(t *testing.T) {
	exp, err := loadExpectations([]byte(`{"s":{"k":[1,2]}}`), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.verify("s", "k", 1, 2); err != nil {
		t.Errorf("matching values: %v", err)
	}
	for _, got := range [][]int64{{1, 3}, {1}, {1, 2, 3}} {
		if exp.verify("s", "k", got...) == nil {
			t.Errorf("values %v passed against [1 2]", got)
		}
	}
	if exp.verify("s", "other", 1) == nil {
		t.Error("a key with no recorded expectation passed")
	}
}

func TestResultCarriesEveryMetric(t *testing.T) {
	rec := newRecorder()
	rec.beginPass(1)
	rec.op(0, opTime{wall: time.Millisecond}, nil)
	res, _ := rec.result(perLayer, layerValues(newTracer()))
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric and workload lists to
// the benchmark definition at the root of the repository.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, def.EndToEnd)
	same("per_layer", perLayer, def.PerLayer)
	for _, w := range def.Workloads {
		if _, err := newWorkload(w.Name, nil, ""); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	id := tr.Start("x", 0, 0)
	tr.End(id)
	tr.Add("x", 1)
	tr.Max("x", 1)
	tr.Observe("x", 1)
	if id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

func TestTracerTotalsAndSamples(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 3; i++ {
		id := tr.Start("layer", i, 0)
		time.Sleep(time.Millisecond)
		tr.End(id)
	}
	tr.Start("layer", 3, 0) // never closed: not counted
	if n := len(tr.Durations("layer")); n != 3 {
		t.Errorf("%d closed spans, want 3", n)
	}
	if tot := tr.Total("layer"); tot < 3*time.Millisecond {
		t.Errorf("total %v, want at least 3ms", tot)
	}
	tr.Max("g", 2)
	tr.Max("g", 1)
	if g := tr.Count("g"); g != 2 {
		t.Errorf("gauge %v, want 2", g)
	}
}
