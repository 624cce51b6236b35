package main

import (
	"reflect"
	"testing"

	"mamut/internal/serve"
)

// TestTimedPolicyMirrorsBuiltins pins the wrapper's optional interfaces
// to the built-in policies': FleetIndexer yes, BacklogObserver no. A
// mismatch would send the traced run down a different dispatcher path.
func TestTimedPolicyMirrorsBuiltins(t *testing.T) {
	for _, name := range serve.PolicyNames() {
		builtin, err := serve.NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := newTimedPolicy(name, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		_, bIdx := builtin.(serve.FleetIndexer)
		_, wIdx := any(wrapped).(serve.FleetIndexer)
		_, bObs := builtin.(serve.BacklogObserver)
		_, wObs := any(wrapped).(serve.BacklogObserver)
		if !bIdx || !wIdx {
			t.Errorf("%s: FleetIndexer builtin=%v wrapper=%v, want both true", name, bIdx, wIdx)
		}
		if bObs || wObs {
			t.Errorf("%s: BacklogObserver builtin=%v wrapper=%v, want both false", name, bObs, wObs)
		}
		if wrapped.Name() != builtin.Name() {
			t.Errorf("wrapper name %q, want %q", wrapped.Name(), builtin.Name())
		}
	}
}

// TestTracedResultMatchesUntraced runs every workload at a reduced size
// (its first arrivals only, over the full horizon and control timeline)
// with and without tracing: the results must be identical.
func TestTracedResultMatchesUntraced(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			p, err := prepare(w, defaultSeed, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := p.cfg
			cfg.Workload.Trace = p.arrivals[:min(len(p.arrivals), 200)]
			ref, err := serve.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, tr, err := tracedRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, res) {
				t.Fatal("traced result differs from the untraced one")
			}
			if n := len(tr.durations("serve.place")); n == 0 {
				t.Error("traced run recorded no placements")
			}
			if n := len(tr.progress); n == 0 {
				t.Error("traced run recorded no drain units")
			}
		})
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n                  int
		p50, tail, tailPct float64
	}{
		{1000, 500, 990, 99},
		{100, 50, 90, 90},
		{40, 20, 30, 75},
		{5, 3, 3, 50},
	} {
		d := summarize(xs[:c.n])
		if d.n != c.n || d.p50 != c.p50 || d.tail != c.tail || d.tailPct != c.tailPct {
			t.Errorf("n=%d: got p50=%g tail=%g (p%g), want p50=%g tail=%g (p%g)",
				c.n, d.p50, d.tail, d.tailPct, c.p50, c.tail, c.tailPct)
		}
	}
	if d := summarize(nil); d != (dist{}) {
		t.Errorf("empty: got %+v", d)
	}
}
