package xrand

import (
	"math/rand"
	"testing"
)

// Every simulated stream (engine metering, encoder noise, fleet arrivals)
// and so every committed golden rests on these draws: a change here
// changes results everywhere.

func TestSplitMix64ReferenceOutputs(t *testing.T) {
	// The first outputs of Vigna's reference splitmix64.c from state 0.
	s := NewSource(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.Uint64(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestFirstDrawsArePinned(t *testing.T) {
	r := New(42)
	for i, want := range []int64{0x5eeb991317f5b74a, 0x1477f199d9337881, 0x23a933ab8987cfa9} {
		if got := r.Int63(); got != want {
			t.Errorf("Int63 draw %d = %#x, want %#x", i, got, want)
		}
	}
	r = New(42)
	for i, want := range []float64{0.7415648787718234, 0.15991039287692013} {
		if got := r.Float64(); got != want {
			t.Errorf("Float64 draw %d = %v, want %v", i, got, want)
		}
	}
	r = New(42)
	for i, want := range []float64{-0.609693607033658, 0.4343654020766509} {
		if got := r.NormFloat64(); got != want {
			t.Errorf("NormFloat64 draw %d = %v, want %v", i, got, want)
		}
	}
	r = New(-7)
	if got := r.Int63(); got != 0x360f0c3221c114b8 {
		t.Errorf("negative seed: Int63 = %#x, want 0x360f0c3221c114b8", got)
	}
}

// mixedDraws consumes a stream the way the simulator does: integer,
// uniform and normal draws interleaved (NormFloat64 takes a variable
// number of source draws).
func mixedDraws(r *rand.Rand, n int) []float64 {
	out := make([]float64, 0, 3*n)
	for i := 0; i < n; i++ {
		out = append(out, float64(r.Int63()), r.Float64(), r.NormFloat64())
	}
	return out
}

func TestNewSourceMatchesNew(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 62} {
		want := mixedDraws(New(seed), 500)
		got := mixedDraws(rand.New(NewSource(seed)), 500)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: draw %d = %v, New gives %v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestStateResumesStreamMidRun(t *testing.T) {
	src := NewSource(2019)
	r := rand.New(src)
	mixedDraws(r, 137) // advance to an arbitrary point mid-stream
	state := src.State()
	want := mixedDraws(r, 300)

	// Resume on a fresh source that has already drawn from another seed.
	other := NewSource(5)
	resumed := rand.New(other)
	mixedDraws(resumed, 10)
	other.SetState(state)
	got := mixedDraws(resumed, 300)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d after SetState = %v, want %v", i, got[i], want[i])
		}
	}
	if other.State() != src.State() {
		t.Errorf("states diverged after identical draws: %#x vs %#x", other.State(), src.State())
	}
}

func TestSeedRestartsStream(t *testing.T) {
	s := NewSource(9)
	first := s.Uint64()
	s.Uint64()
	s.Seed(9)
	if got := s.Uint64(); got != first {
		t.Errorf("after Seed(9) first draw = %#x, want %#x", got, first)
	}
}
