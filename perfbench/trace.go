package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"mamut/internal/serve"
)

// span is one timed interval of a traced run. Times are nanoseconds since
// the tracer started; Parent indexes the span that caused this one (-1
// for the root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps a traced run's spans in memory. Span 0 is the root: the
// serve.Run call itself.
type tracer struct {
	t0       time.Time
	spans    []span
	progress []int64 // Config.Progress call instants
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now()}
	tr.spans = append(tr.spans, span{Name: "serve.Run", Parent: -1})
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// record appends a child span of the root.
func (tr *tracer) record(name string, start, end int64) {
	tr.spans = append(tr.spans, span{Name: name, Start: start, End: end})
}

// timedPolicy wraps a built-in policy and times every call the indexed
// dispatcher makes into it. It mirrors the built-in policies' optional
// interfaces exactly: it implements serve.FleetIndexer, and it must not
// implement serve.BacklogObserver, or the dispatcher would take a
// different path (observing the fleet before every decision).
type timedPolicy struct {
	inner serve.FleetIndexer
	tr    *tracer
}

func newTimedPolicy(name string, tr *tracer) (*timedPolicy, error) {
	p, err := serve.NewPolicy(name)
	if err != nil {
		return nil, err
	}
	fi, ok := p.(serve.FleetIndexer)
	if !ok {
		return nil, fmt.Errorf("policy %q has no fleet index to time", name)
	}
	return &timedPolicy{inner: fi, tr: tr}, nil
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

// Place serves the scan dispatcher, which the benchmark does not use.
func (p *timedPolicy) Place(req serve.SessionRequest, servers []serve.ServerState) int {
	return p.inner.Place(req, servers)
}

// NewFleetIndex times the index (re)build and wraps the index.
func (p *timedPolicy) NewFleetIndex(states []serve.ServerState) serve.FleetIndex {
	start := p.tr.now()
	idx := p.inner.NewFleetIndex(states)
	p.tr.record("serve.index_build", start, p.tr.now())
	return &timedIndex{inner: idx, tr: p.tr}
}

type timedIndex struct {
	inner serve.FleetIndex
	tr    *tracer
}

func (x *timedIndex) Update(s serve.ServerState) {
	start := x.tr.now()
	x.inner.Update(s)
	x.tr.record("serve.index_update", start, x.tr.now())
}

func (x *timedIndex) Place(req serve.SessionRequest) int {
	start := x.tr.now()
	choice := x.inner.Place(req)
	x.tr.record("serve.place", start, x.tr.now())
	return choice
}

// tracedRun runs cfg once with the timing policy and progress hook in
// place and returns the result with the tracer holding its spans.
func tracedRun(cfg serve.Config) (*serve.Result, *tracer, error) {
	tr := newTracer()
	pol, err := newTimedPolicy(cfg.Policy, tr)
	if err != nil {
		return nil, nil, err
	}
	cfg.PolicyFactory = func() serve.Policy { return pol }
	cfg.Progress = func(done, total int, label string) { tr.progress = append(tr.progress, tr.now()) }
	tr.spans[0].Start = tr.now()
	res, err := serve.Run(cfg)
	tr.spans[0].End = tr.now()
	if err != nil {
		return nil, nil, err
	}
	tr.addPhases()
	return res, tr, nil
}

// addPhases derives the phase and drain-unit spans once the run is over:
// the arrival phase ends when the last placement returns, the tail drain
// runs from there to the end of Run, and each drain unit runs from the
// previous progress report (the first from the last index call before
// it) to its own.
func (tr *tracer) addPhases() {
	root := tr.spans[0]
	lastPlace := root.Start
	for _, s := range tr.spans[1:] {
		if s.Name == "serve.place" {
			lastPlace = s.End
		}
	}
	tr.record("serve.arrival_phase", root.Start, lastPlace)
	tr.record("serve.tail_drain", lastPlace, root.End)
	for i, at := range tr.progress {
		start := lastPlace
		if i > 0 {
			start = tr.progress[i-1]
		} else {
			for _, s := range tr.spans[1:] {
				if s.End <= at && s.End > start {
					start = s.End
				}
			}
		}
		tr.record("experiments.drain_unit", start, at)
	}
}

// durations lists the durations of the spans with the given name.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// steps lists the wall time between consecutive placements, minus the
// placements' own time: the sweep, folds and control moments the
// dispatcher ran between two decisions.
func (tr *tracer) steps() []float64 {
	var out []float64
	prevEnd := int64(-1)
	for _, s := range tr.spans {
		if s.Name != "serve.place" {
			continue
		}
		if prevEnd >= 0 {
			out = append(out, float64(s.Start-prevEnd))
		}
		prevEnd = s.End
	}
	return out
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ledger is the per-layer metric set of a traced run.
type ledger map[string]metric

func (l ledger) set(name, unit string, v float64) { l[name] = metric{v, unit} }

// timing reports a timing distribution as its median, its tail (the
// highest of p99/p95/p90/p75 with at least ten samples beyond it, else
// the median), the tail's percentile and the sample count. countName
// names the count metric (name.n when empty).
func (l ledger) timing(name, unit string, xs []float64, countName string) {
	if countName == "" {
		countName = name + ".n"
	}
	d := summarize(xs)
	l.set(name+".p50", unit, d.p50)
	l.set(name+".tail", unit, d.tail)
	l.set(name+".tail_pct", "percentile", d.tailPct)
	l.set(countName, "count", float64(d.n))
}

type dist struct {
	p50, tail, tailPct float64
	n                  int
}

func summarize(xs []float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// rank is the 1-based nearest-rank position of percentile q.
	rank := func(q float64) int { return int(math.Ceil(q / 100 * float64(n))) }
	d := dist{p50: s[rank(50)-1], n: n}
	d.tail, d.tailPct = d.p50, 50
	for _, q := range []float64{99, 95, 90, 75} {
		if r := rank(q); n-r >= 10 {
			d.tail, d.tailPct = s[r-1], q
			break
		}
	}
	return d
}

// rtCounters samples the Go runtime counters the ledger reports.
type rtCounters struct {
	gcCycles, mallocs uint64
	gcCPU, userCPU    float64
}

func readRuntime() rtCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	metrics.Read(samples)
	return rtCounters{
		gcCycles: uint64(ms.NumGC),
		mallocs:  ms.Mallocs,
		gcCPU:    samples[0].Value.Float64(),
		userCPU:  samples[1].Value.Float64(),
	}
}

// runTraced is the traced invocation: it alternates untraced and traced
// repetitions of the workload (the difference is the tracing overhead),
// derives the serve and experiments layers from the last traced run's
// spans, runs the layer probes on the workload's own inputs, and
// reports the exact counts.
func runTraced(w *workload, p *prepared, ref *serve.Result, g *gate, seconds float64) (*output, error) {
	l := ledger{}
	var (
		plainNs, tracedNs []float64
		tr                *tracer
		rt                rtCounters
	)
	attempted := 1
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(tracedNs) < 2 || time.Now().Before(deadline) {
		runtime.GC()
		before := readRuntime()
		t0 := time.Now()
		res, err := serve.Run(p.cfg)
		dt := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("untraced run: %w", err)
		}
		after := readRuntime()
		rt.gcCycles += after.gcCycles - before.gcCycles
		rt.mallocs += after.mallocs - before.mallocs
		rt.gcCPU += after.gcCPU - before.gcCPU
		rt.userCPU += after.userCPU - before.userCPU
		plainNs = append(plainNs, float64(dt.Nanoseconds()))
		g.checkRepeat(ref, res)

		runtime.GC()
		t0 = time.Now()
		res, tr, err = tracedRun(p.cfg)
		dt = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		tracedNs = append(tracedNs, float64(dt.Nanoseconds()))
		// Tracing must not change the outcome.
		g.checkRepeat(ref, res)
		attempted += 2
	}
	reps := float64(len(plainNs))
	frames := float64(p.frames)
	l.set("wall_ns_per_frame", "ns", median(plainNs)/frames)
	l.set("trace.overhead_pct", "%", (median(tracedNs)/median(plainNs)-1)*100)
	l.set("runtime.gc_cycles", "count", float64(rt.gcCycles)/reps)
	l.set("runtime.gc_cpu_pct", "%", 100*rt.gcCPU/(rt.gcCPU+rt.userCPU))
	l.set("runtime.mallocs_per_frame", "count", float64(rt.mallocs)/reps/frames)

	// serve and experiments, from the spans of the last traced run.
	root := tr.spans[0]
	l.set("serve.arrival_phase_s", "s", tr.durations("serve.arrival_phase")[0]/1e9)
	l.set("serve.tail_drain_s", "s", tr.durations("serve.tail_drain")[0]/1e9)
	l.timing("serve.step_ns", "ns", tr.steps(), "serve.steps")
	l.timing("serve.place_ns", "ns", tr.durations("serve.place"), "serve.place_calls")
	l.timing("serve.index_update_ns", "ns", tr.durations("serve.index_update"), "serve.index_update_calls")
	l.timing("serve.index_build_ns", "ns", tr.durations("serve.index_build"), "serve.index_build_calls")
	l.timing("experiments.drain_unit_ns", "ns", tr.durations("experiments.drain_unit"), "experiments.drain_units")
	fmt.Printf("traced run: %.3f s, %d spans, overhead %.2f%%\n", float64(root.End-root.Start)/1e9, len(tr.spans), l["trace.overhead_pct"].Value)
	spansPath := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", w.name, p.cfg.Seed))
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	// Exact counts. transcode.frames needs the per-session log, so it
	// comes from a retaining run made here only: retention never
	// inflates the end-to-end run's peak RSS.
	cfg := p.cfg
	cfg.RetainSessions = true
	res, err := serve.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("retaining run: %w", err)
	}
	attempted++
	transcoded := 0
	for _, s := range res.Sessions {
		transcoded += s.Frames
	}
	res.Sessions = nil
	if !reflect.DeepEqual(ref, res) {
		g.failf("retaining run differs from the reference run beyond Result.Sessions")
	}
	for k, v := range resultCounts(ref) {
		l.set(k, "count", float64(v))
	}
	l.set("transcode.frames", "count", float64(transcoded))

	if err := runLayerProbes(l, w, p, ref); err != nil {
		return nil, err
	}
	return &output{Attempted: attempted, Metrics: l}, nil
}
