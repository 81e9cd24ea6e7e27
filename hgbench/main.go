// Command hgbench is the repository benchmark: it runs one workload of
// the HeteroGen pipeline in-process through the library's public entry
// points, checks every op's output against recorded expectations, and
// prints one JSON result line.
//
//	hgbench --workload compile-cold --seed 1 --seconds 32 --trace 0
//
// --trace 0 measures the end-to-end metrics (set-up repeated and its
// median reported, then timed passes over the workload's ops). --trace 1
// runs one untraced and one traced pass, wraps every call into a layer in
// a span, writes the spans under --out, and prints the per-layer metrics
// derived from them plus the tracing overhead. hgbench/run.sh builds the
// binary from source and runs it; NOTES.md explains the workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// singleWorker is the parallelism of every layer the benchmark drives:
// search workers, litmus test and exploration workers, sweep workers and
// the daemon's job and per-job workers. Multi-worker scaling is
// deliberately left unmeasured.
const singleWorker = 1

// bench is one benchmark workload. Every computation runs on a single
// worker; the second CPU is left to the garbage collector, the HTTP side
// of serve-mix and host noise.
type bench interface {
	// setup builds the inputs for seed (fusions, systems, a server). It
	// runs several times per run; each call replaces the previous inputs.
	setup(seed int64, tr *Tracer) error
	// ops is the number of ops in one pass.
	ops() int
	// nominal is the pass time a run plans for, near one pass's wall time
	// on the 2-vCPU development host. It fixes how many passes fit the
	// window, so a run's work does not depend on how fast the host
	// happened to be.
	nominal() time.Duration
	// pass runs every op once, reporting each to rec.
	pass(ctx context.Context, tr *Tracer, rec *recorder)
	// verify runs the untimed checks that follow the timed passes.
	verify(tr *Tracer, rec *recorder)
	// probe adds the traced run's extra per-layer measurements; the ops
	// it checks are reported to rec.
	probe(tr *Tracer, rec *recorder)
	// info returns workload-specific end-to-end figures for the report,
	// given the median pass wall time.
	info(passWall float64) []string
	// overlapping reports whether ops run concurrently, so that only
	// whole passes, not single ops, can be timed.
	overlapping() bool
	// close releases the inputs of the last setup.
	close()
}

// base supplies the optional workload methods.
type base struct{}

func (base) verify(*Tracer, *recorder) {}
func (base) probe(*Tracer, *recorder)  {}
func (base) info(float64) []string     { return nil }
func (base) overlapping() bool         { return false }
func (base) close()                    {}

// newWorkload maps a workload name to its implementation.
func newWorkload(name string, exp *expectations, out string) (bench, error) {
	switch name {
	case "viic-check":
		return &viicCheck{exp: exp}, nil
	case "compile-cold":
		return &compileCold{exp: exp}, nil
	case "litmus-suite":
		return &litmusSuite{exp: exp}, nil
	case "fig10-sim":
		return &fig10Sim{exp: exp}, nil
	case "serve-mix":
		return &serveMix{exp: exp, out: out}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
}

// workloadNames lists the workloads. BENCHMARK.json gates compile-cold,
// fig10-sim and serve-mix. viic-check, whose one 15 s search per pass is
// too long for the gate's time budget, and litmus-suite, whose wall time
// spread past the gate's bound on a shared 2-vCPU host, stay runnable by
// hand; compile-cold's traced run measures the litmus layers (NOTES.md).
var workloadNames = []string{"viic-check", "compile-cold", "litmus-suite", "fig10-sim", "serve-mix"}

// A trace-0 run sets its workload up at least setupMinReps times and
// until setupMinTime has been spent doing so; setup_s is the median, so a
// set-up of a fraction of a millisecond is still measured many times.
const (
	setupMinReps = 5
	setupMinTime = 500 * time.Millisecond
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 32, "timed window in seconds; it sets the pass count, at least 2")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for spans and temporary files")
	record := fs.String("record", "", "write the observed outputs into this expectations file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "hgbench: --trace must be 0 or 1")
		return 2
	}
	data := expectedJSON
	if *record != "" {
		// Record into the existing file, replacing only this workload's
		// sections.
		if prev, err := os.ReadFile(*record); err == nil {
			data = prev
		}
	}
	exp, err := loadExpectations(data, *record != "")
	if err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	w, err := newWorkload(*name, exp, *out)
	if err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 2
	}
	host := watchHost()
	var rec *recorder
	var values map[string]float64
	var info []string
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		rec, values, info, err = runTraced(w, *seed, filepath.Join(*out, "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed)))
	} else {
		rec, values, info, err = runTimed(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	if *record != "" {
		if err := exp.save(*record); err != nil {
			fmt.Fprintln(stderr, "hgbench:", err)
			return 1
		}
	}
	res, failures := rec.result(defs, values)
	hostJSON, _ := json.Marshal(host.finish())
	fmt.Fprintf(stdout, "host: %s\n", hostJSON)
	for _, line := range info {
		fmt.Fprintln(stdout, line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "hgbench:", f)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// minPasses is the fewest passes a trace-0 run makes: each op's fastest
// pass is what wall_s and cpu_s count.
const minPasses = 2

// passCount is how many nominal passes fill the window, and at least
// minPasses.
func passCount(w bench, window time.Duration) int {
	return max(minPasses, int(window/w.nominal()))
}

// runTimed is the trace-0 run: repeated set-up, then passCount untraced
// passes.
func runTimed(w bench, seed int64, window time.Duration) (*recorder, map[string]float64, []string, error) {
	var setups []float64
	var spent time.Duration
	for len(setups) < setupMinReps || spent < setupMinTime {
		if len(setups) > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(seed, nil); err != nil {
			return nil, nil, nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer w.close()
	rec := newRecorder()
	ctx := context.Background()
	passes := make([]opTime, passCount(w, window))
	for i := range passes {
		runtime.GC()
		rec.beginPass(w.ops())
		clock := startOp()
		w.pass(ctx, nil, rec)
		passes[i] = clock.stop()
	}
	w.verify(nil, rec)
	wall, cpu := rec.fastest()
	if w.overlapping() {
		wall, cpu = fastestPass(passes)
	}
	values := map[string]float64{
		"wall_s":      wall.Seconds(),
		"setup_s":     median(setups),
		"cpu_s":       cpu.Seconds(),
		"peak_rss_mb": peakRSSMB(),
	}
	passWalls := make([]float64, len(passes))
	for i, p := range passes {
		passWalls[i] = p.wall.Seconds()
	}
	info := append([]string{fmt.Sprintf("setups: %d, setup_s %.6f; passes: %d of %d ops, pass wall_s %.3f",
		len(setups), median(setups), len(passes), w.ops(), passWalls)}, rec.latencyInfo()...)
	info = append(info, w.info(median(passWalls))...)
	return rec, values, info, nil
}

// runTraced is the trace-1 run: set-up and one untraced pass, then the
// same pass traced, the workload's probe, and the per-layer metrics.
func runTraced(w bench, seed int64, spansPath string) (*recorder, map[string]float64, []string, error) {
	tr := newTracer()
	if err := w.setup(seed, tr); err != nil {
		return nil, nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer w.close()
	rec := newRecorder()
	ctx := context.Background()
	var walls [2]time.Duration
	for i, t := range []*Tracer{nil, tr} {
		runtime.GC()
		rec.beginPass(w.ops())
		start := time.Now()
		w.pass(ctx, t, rec)
		walls[i] = time.Since(start)
	}
	w.verify(tr, rec)
	w.probe(tr, rec)
	if err := tr.Write(spansPath); err != nil {
		return nil, nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	values := layerValues(tr)
	values["trace.overhead_pct"] = 100 * (walls[1].Seconds() - walls[0].Seconds()) / walls[0].Seconds()
	info := []string{fmt.Sprintf("untraced pass %.3fs, traced pass %.3fs, spans in %s",
		walls[0].Seconds(), walls[1].Seconds(), spansPath)}
	return rec, values, info, nil
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd lists the trace-0 metrics, as in BENCHMARK.json.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// opClock times one op (or pass) in wall and process CPU time.
type opClock struct {
	start time.Time
	cpu   time.Duration
}

// opTime is what one op (or pass) cost.
type opTime struct{ wall, cpu time.Duration }

func startOp() opClock { return opClock{time.Now(), cpuTime()} }

func (c opClock) stop() opTime { return opTime{time.Since(c.start), cpuTime() - c.cpu} }

// fastestPass is the smallest wall and CPU time among whole passes.
func fastestPass(passes []opTime) (wall, cpu time.Duration) {
	for i, p := range passes {
		if i == 0 || p.wall < wall {
			wall = p.wall
		}
		if i == 0 || p.cpu < cpu {
			cpu = p.cpu
		}
	}
	return wall, cpu
}

// recorder collects every op's cost and verdict, pass by pass;
// workloads with concurrent clients call it from several goroutines.
type recorder struct {
	mu        sync.Mutex
	passes    [][]opTime // [pass][op]
	failures  map[[2]int]error
	attempted int
}

func newRecorder() *recorder {
	return &recorder{failures: map[[2]int]error{}}
}

// beginPass starts a pass of n ops.
func (r *recorder) beginPass(n int) {
	r.mu.Lock()
	r.passes = append(r.passes, make([]opTime, n))
	r.mu.Unlock()
}

// op records op i of the current pass.
func (r *recorder) op(i int, t opTime, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	p := len(r.passes) - 1
	r.passes[p][i] = t
	if err != nil {
		r.failures[[2]int{p, i}] = err
	}
}

// fail marks op i of pass p, already recorded, as failed by a later
// check.
func (r *recorder) fail(p, i int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.failures[[2]int{p, i}]; !dup {
		r.failures[[2]int{p, i}] = err
	}
}

// fastest sums each op's fastest wall and CPU time over the passes:
// a pass's cost with host interference — steal and neighbours' cache and
// memory traffic, which only ever slow an op down — filtered out op by op.
func (r *recorder) fastest() (wall, cpu time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.passes[0] {
		best := r.passes[0][i]
		for _, p := range r.passes[1:] {
			best.wall = min(best.wall, p[i].wall)
			best.cpu = min(best.cpu, p[i].cpu)
		}
		wall += best.wall
		cpu += best.cpu
	}
	return wall, cpu
}

// latencyInfo prints the op percentiles the sample count allows, each
// with its sample count.
func (r *recorder) latencyInfo() []string {
	r.mu.Lock()
	var lat []float64
	for _, p := range r.passes {
		for _, t := range p {
			lat = append(lat, ms(t.wall))
		}
	}
	r.mu.Unlock()
	var parts []string
	for _, q := range []float64{0.5, 0.9} {
		if v, ok := percentile(lat, q); ok {
			parts = append(parts, fmt.Sprintf("op_p%d_ms %.3f (n=%d)", int(q*100), v, len(lat)))
		}
	}
	if len(parts) == 0 {
		return []string{fmt.Sprintf("op latency: %d samples, too few for a percentile", len(lat))}
	}
	return []string{strings.Join(parts, ", ")}
}

// result assembles the result line from the metric list and values, and
// describes the first failed ops.
func (r *recorder) result(defs []metricDef, values map[string]float64) (*result, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := &result{Attempted: r.attempted, Failed: len(r.failures), Metrics: map[string]metric{}}
	res.Correct = r.attempted > 0 && res.Failed == 0
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	keys := make([][2]int, 0, len(r.failures))
	for k := range r.failures {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		return keys[a][0] < keys[b][0] || keys[a][0] == keys[b][0] && keys[a][1] < keys[b][1]
	})
	var failures []string
	for n, k := range keys {
		if n == 10 {
			failures = append(failures, fmt.Sprintf("... %d more failed ops", len(keys)-n))
			break
		}
		failures = append(failures, fmt.Sprintf("pass %d op %d failed: %v", k[0], k[1], r.failures[k]))
	}
	return res, failures
}
