// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (see workloads.go) through serve.Run as a single goroutine
// (Shards 1, Workers 1), generating the arrivals from its own -seed and
// handing them to the program as Workload.Trace, and prints one JSON
// result object as the last line of standard output.
//
// Untraced mode (-trace 0) times whole runs and reports the end-to-end
// metrics: norm_ns_per_frame (wall time per offered frame, rescaled by a
// reference kernel against host drift, see hostref.go),
// alloc_bytes_per_frame, peak_rss_mb and setup_s.
// Traced mode (-trace 1) is a separate invocation that observes serve.Run
// only through the hooks it already exposes (a timing policy wrapper and
// Config.Progress), times each inner module's public functions on inputs
// taken from the workload, and reports the per-layer metrics.
//
// Every run passes the outcome gate first (gate.go): a wrong or
// nondeterministic result fails the run with a non-zero exit and posts
// no number.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload frame-path-10k --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload chaos-ckpt-32 --print-expected
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"mamut/internal/serve"
)

// setupReps is how many times each run sets its workload up; setup_s is
// the median.
const setupReps = 31

// minReps is the fewest timed repetitions a run makes, however long they
// take.
const minReps = 3

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), "|"))
		seed     = flag.Int64("seed", defaultSeed, "workload seed; the default seed is also checked against expected.json")
		seconds  = flag.Float64("seconds", 20, "how long to time repetitions for")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		printExp = flag.Bool("print-expected", false, "print the workload's expected.json entry for -seed and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *printExp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// output is the result object the benchmark prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed int64, seconds float64, trace int, printExp bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	fmt.Println(envStamp(seed))
	p, err := prepare(w, seed, setupReps)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d arrivals, %d offered frames\n", w.name, len(p.arrivals), p.frames)

	// The untimed warm-up repetition doubles as the reference result
	// every later repetition must reproduce exactly.
	ref, err := serve.Run(p.cfg)
	if err != nil {
		return fmt.Errorf("%s: warm-up run: %w", w.name, err)
	}
	if printExp {
		return printExpected(w.name, seed, ref)
	}
	g := &gate{workload: w.name}
	g.checkReference(ref, seed)
	if len(g.failures) > 0 {
		return g.fail(&output{Attempted: 1})
	}

	var out *output
	if trace == 1 {
		out, err = runTraced(w, p, ref, g, seconds)
	} else {
		out, err = runTimed(p, ref, g, seconds)
	}
	if err != nil {
		return err
	}
	if len(g.failures) > 0 {
		return g.fail(out)
	}
	out.Correct = true
	printJSON(out)
	return nil
}

// runTimed measures the end-to-end metrics: one serve.Run per timed
// repetition, a forced GC before each, until seconds have passed.
func runTimed(p *prepared, ref *serve.Result, g *gate, seconds float64) (*output, error) {
	var (
		wallNs, normNs []float64
		alloc          uint64
		ms             runtime.MemStats
	)
	// Kernel runs bracket every repetition: each is rescaled by the
	// median of the runs just before and just after it, so a host that
	// drifts within the run is tracked too.
	before := hostRefSamples(0)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(wallNs) < minReps || time.Now().Before(deadline) {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		allocBefore := ms.TotalAlloc
		t0 := time.Now()
		res, err := serve.Run(p.cfg)
		dt := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("timed run: %w", err)
		}
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - allocBefore
		g.checkRepeat(ref, res)
		after := hostRefSamples(dt / 10)
		bracket := append(append([]float64(nil), before...), after...)
		wall := float64(dt.Nanoseconds())
		wallNs = append(wallNs, wall)
		normNs = append(normNs, wall*float64(refNominal.Nanoseconds())/median(bracket))
		fmt.Printf("repetition %d: wall %.3f s, reference kernel %s s\n", len(wallNs), wall/1e9, formatSeconds(bracket))
		before = after
	}
	rssMB, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	reps := len(wallNs)
	frames := float64(p.frames)
	fmt.Printf("timed repetitions: %d, wall ns_per_frame %.1f\n", reps, median(wallNs)/frames)
	return &output{
		Attempted: reps + 1,
		Metrics: map[string]metric{
			"norm_ns_per_frame":     {median(normNs) / frames, "ns"},
			"alloc_bytes_per_frame": {float64(alloc) / float64(reps) / frames, "B"},
			"peak_rss_mb":           {rssMB, "MB"},
			"setup_s":               {median(p.setupS), "s"},
		},
	}, nil
}

// envStamp describes the measuring environment.
func envStamp(seed int64) string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (unset)"
	}
	return fmt.Sprintf("env: %s %s/%s NumCPU=%d GOMAXPROCS=%d GOGC=%s seed=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, seed)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func printJSON(out *output) {
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf metric can fail to marshal: a bug.
		panic(err)
	}
	fmt.Println(string(b))
}

// median returns the middle value (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func formatSeconds(ns []float64) string {
	parts := make([]string, len(ns))
	for i, v := range ns {
		parts[i] = fmt.Sprintf("%.3f", v/1e9)
	}
	return strings.Join(parts, " ")
}
