package main

import (
	"math/rand"
	"sort"
	"time"
)

// The host on which this benchmark runs drifts in speed by 20% and more
// over minutes, and a change to the simulator must not be blamed for
// that. Each timed repetition is therefore followed by runs of a fixed
// reference kernel (about a tenth of the repetition's time, at least
// one), and norm_ns_per_frame rescales each repetition's wall time by
// the median kernel time around it, as if every run had seen a host on
// which the kernel takes refNominal.
//
// The kernel deliberately uses no code of the program under test, so a
// change to the program cannot move it. It mixes kinds of work the
// simulator does: normal variates, sorting, and map updates with small
// allocations. On the 2-vCPU host the benchmark was tuned on, its time
// tracked the drift of all three workloads (windowed medians of the
// ratio varied by 3-4% where the raw times varied by 8-11%); a
// register-only loop, a 32 MB pointer chase and a binary-heap churn did
// not track it as well.
const refNominal = 250 * time.Millisecond

// refSink keeps the kernel's results live.
var refSink int

// hostRefSamples runs the kernel until its runs add up to at least
// budget (at least once) and returns each run's ns.
func hostRefSamples(budget time.Duration) []float64 {
	var out []float64
	var spent time.Duration
	for len(out) == 0 || spent < budget {
		d := hostRef()
		spent += d
		out = append(out, float64(d.Nanoseconds()))
	}
	return out
}

func hostRef() time.Duration {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < 4; r++ {
		xs := make([]float64, 200_000)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		sort.Float64s(xs)
		m := make(map[int]*refNode, 1000)
		for i := 0; i < 100_000; i++ {
			k := rng.Intn(50_000)
			n := m[k]
			if n == nil {
				n = &refNode{key: xs[i]}
				m[k] = n
			}
			n.ids = append(n.ids, i)
		}
		refSink += len(m)
	}
	return time.Since(t0)
}

type refNode struct {
	key float64
	ids []int
}
