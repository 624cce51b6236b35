package platform

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// nearestOracle is the copying implementation Nearest replaced: build the
// rung frequencies, then sort.SearchFloat64s over that copy.
func nearestOracle(s Spec, f float64) float64 {
	freqs := s.Frequencies()
	i := sort.SearchFloat64s(freqs, f)
	if i == 0 {
		return freqs[0]
	}
	if i == len(freqs) {
		return freqs[len(freqs)-1]
	}
	if f-freqs[i-1] <= freqs[i]-f {
		return freqs[i-1]
	}
	return freqs[i]
}

// stepOracle is the copying implementation StepUp and StepDown replaced:
// choose the full or the real-time rung list, then scan it.
func stepOracle(s Spec, f float64, rt, up bool) float64 {
	freqs := s.Frequencies()
	if rt {
		freqs = s.RealTimeFrequencies()
	}
	if up {
		for _, g := range freqs {
			if g > f {
				return g
			}
		}
		return f
	}
	best := f
	for _, g := range freqs {
		if g < f && (best == f || g > best) {
			best = g
		}
	}
	return best
}

// ladderProbes returns every rung, every midpoint between adjacent rungs
// and its two float neighbours, values off both ends, ±Inf and NaN.
func ladderProbes(s Spec) []float64 {
	l := s.Ladder
	probes := []float64{
		math.Inf(-1), math.Inf(1), math.NaN(), 0, -1,
		l[0].GHz / 2, math.Nextafter(l[0].GHz, 0),
		math.Nextafter(l[len(l)-1].GHz, math.Inf(1)), l[len(l)-1].GHz * 2,
	}
	for i, fv := range l {
		probes = append(probes, fv.GHz)
		if i > 0 {
			mid := (l[i-1].GHz + fv.GHz) / 2
			probes = append(probes, mid,
				math.Nextafter(mid, math.Inf(-1)), math.Nextafter(mid, math.Inf(1)))
		}
	}
	return probes
}

// randomLadderSpec returns a valid spec over a random strictly ascending
// ladder of n rungs.
func randomLadderSpec(rng *rand.Rand, n int) Spec {
	s := DefaultSpec()
	s.Ladder = make([]FreqVolt, n)
	f := 0.5 + rng.Float64()
	for i := range s.Ladder {
		s.Ladder[i] = FreqVolt{GHz: f, Volts: 0.7 + 0.05*float64(i)}
		f += 0.01 + rng.Float64()
	}
	s.MinRealTimeGHz = s.Ladder[rng.Intn(n)].GHz
	return s
}

func ladderSpecs(t *testing.T) map[string]Spec {
	t.Helper()
	one := DefaultSpec()
	one.Ladder = []FreqVolt{{2.6, 1.0}}
	one.MinRealTimeGHz = 2.6
	// Dyadic rungs make every midpoint an exact tie (f-lo == hi-f), which
	// the decimal default ladder never produces in float arithmetic.
	dyadic := DefaultSpec()
	dyadic.Ladder = []FreqVolt{{1, 0.8}, {1.5, 0.9}, {2, 1.0}, {3, 1.1}}
	dyadic.MinRealTimeGHz = 1.5
	specs := map[string]Spec{"default": DefaultSpec(), "one-rung": one, "dyadic": dyadic}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		specs["random-"+string(rune('a'+i))] = randomLadderSpec(rng, 2+rng.Intn(12))
	}
	for name, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return specs
}

func TestNearestMatchesCopyingOracle(t *testing.T) {
	for name, s := range ladderSpecs(t) {
		srv, err := NewServer(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range ladderProbes(s) {
			want := nearestOracle(s, f)
			if got := s.Nearest(f); got != want {
				t.Errorf("%s: Spec.Nearest(%v) = %v, oracle %v", name, f, got, want)
			}
			if got := srv.Nearest(f); got != want {
				t.Errorf("%s: Server.Nearest(%v) = %v, oracle %v", name, f, got, want)
			}
		}
	}
}

func TestStepUpDownMatchCopyingOracle(t *testing.T) {
	for name, s := range ladderSpecs(t) {
		for _, f := range ladderProbes(s) {
			for _, rt := range []bool{false, true} {
				if got, want := s.StepUp(f, rt), stepOracle(s, f, rt, true); !sameFloat(got, want) {
					t.Errorf("%s: StepUp(%v, %v) = %v, oracle %v", name, f, rt, got, want)
				}
				if got, want := s.StepDown(f, rt), stepOracle(s, f, rt, false); !sameFloat(got, want) {
					t.Errorf("%s: StepDown(%v, %v) = %v, oracle %v", name, f, rt, got, want)
				}
			}
		}
	}
}

// sameFloat is bit equality, so a NaN passed through unchanged matches.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLadderLookupsAllocateNothing pins the per-frame ladder reads (the
// engine's sanitize and the heuristic governor) at zero allocations.
func TestLadderLookupsAllocateNothing(t *testing.T) {
	srv := mustServer(t)
	s := DefaultSpec()
	f := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		f += 0.037
		_ = srv.Nearest(f) + srv.IdlePowerW() + float64(srv.LogicalCPUs())
		_ = s.StepDown(f, true) + s.StepUp(f, false) + s.MaxGHz()
	})
	if allocs != 0 {
		t.Errorf("%g allocations per lookup round, want 0", allocs)
	}
}

// TestServerLadderIsPrivate checks that a live server's ladder changes only
// through SetSpec: neither the spec it was built from, nor a spec later
// passed to SetSpec, nor a copy returned by Spec() shares its rungs.
func TestServerLadderIsPrivate(t *testing.T) {
	want := DefaultSpec().Ladder
	check := func(step string, srv *Server) {
		t.Helper()
		if !slices.Equal(srv.spec.Ladder, want) {
			t.Errorf("%s: live ladder = %v, want %v", step, srv.spec.Ladder, want)
		}
	}
	spec := DefaultSpec()
	srv, err := NewServer(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.Ladder[0].GHz = 9
	check("edit the spec passed to NewServer", srv)
	srv.Spec().Ladder[1].GHz = 9
	check("edit a copy returned by Spec", srv)
	swap := DefaultSpec()
	if err := srv.SetSpec(swap); err != nil {
		t.Fatal(err)
	}
	swap.Ladder[2].GHz = 9
	check("edit the spec passed to SetSpec", srv)
}
