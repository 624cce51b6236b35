package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"mamut/internal/experiments"
	"mamut/internal/serve"
	"mamut/internal/video"
)

// workload is one benchmark input family: a fleet configuration whose
// arrival stream is generated from the run's seed. The program under
// test only ever sees the generated arrivals (Workload.Trace).
type workload struct {
	name string
	// shape builds the stochastic arrival process the trace is sampled
	// from.
	shape serve.Workload
	// config builds the service configuration around a generated trace;
	// it is called once per set-up, never inside a timed repetition.
	config func(trace []serve.SessionRequest) serve.Config
	// artifact, when set, builds the untimed pre-run whose exported
	// knowledge store the workload imports at set-up.
	artifact func(seed int64) serve.Config
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workload{
	{
		// Engine frame events and the fleet event-heap sweep do nearly
		// all the work: cheap heuristic control, no knowledge store, no
		// control timeline.
		name: "frame-path-10k",
		// 20 s instead of the fleetbench baseline's 30 s: the trace's
		// content hardly varies between seeds at this size, and shorter
		// repetitions leave time for more of them.
		shape: serve.Workload{
			ArrivalRate:    500, // 0.05 arrivals/s per server
			DurationSec:    20,
			MeanSessionSec: 10,
		},
		config: func(trace []serve.SessionRequest) serve.Config {
			return serve.Config{
				Servers:              10000,
				MaxSessionsPerServer: 8,
				Policy:               serve.PolicyLeastLoaded,
				Approach:             experiments.Heuristic,
				Workload:             serve.Workload{DurationSec: 20, Trace: trace},
				WarmupSec:            5,
			}
		},
	},
	{
		// Short MAMUT sessions reusing knowledge from an empty store:
		// most admissions warm-start from a class snapshot, departures
		// fold into the store.
		name: "warm-start-1k",
		shape: serve.Workload{
			ArrivalRate:    50,
			DurationSec:    30,
			MeanSessionSec: 10,
		},
		config: func(trace []serve.SessionRequest) serve.Config {
			return serve.Config{
				Servers:              1000,
				MaxSessionsPerServer: 8,
				Policy:               serve.PolicyLeastLoaded,
				Approach:             experiments.MAMUT,
				KnowledgeReuse:       true,
				Workload:             serve.Workload{DurationSec: 30, Trace: trace},
				WarmupSec:            7.5,
			}
		},
	},
	{
		// The serial control timeline dominates: admission queue,
		// autoscale, rebalance, a drain, crashes with checkpointed
		// recovery, on a fleet warm-started from an imported artifact.
		name:  "chaos-ckpt-32",
		shape: chaosShape,
		config: func(trace []serve.SessionRequest) serve.Config {
			w := chaosShape
			w.Trace = trace
			return chaosConfig(w)
		},
		// The artifact comes from the same chaos run on a derived seed. A
		// cheaper pre-run (the fleet under a steady 60 s load) left the
		// per-frame figures of different seeds about twice as far apart.
		artifact: func(seed int64) serve.Config {
			cfg := chaosConfig(chaosShape)
			cfg.Seed = experiments.SubSeed(seed, "perfbench|artifact", 0)
			return cfg
		},
	},
}

// chaosShape is chaos-ckpt-32's arrival process: 30 s sessions over a
// 120 s horizon with a 4x flash crowd between 40 s and 80 s. The horizon
// is long so that a run averages over more arrivals: at 60 s, the
// allocation per frame of different seeds spread by 12%, at 120 s by 7-8%.
var chaosShape = serve.Workload{
	ArrivalRate:    3,
	DurationSec:    120,
	MeanSessionSec: 30,
	Curve:          serve.LoadBurst,
	BurstFactor:    4,
	BurstStartSec:  40,
	BurstEndSec:    80,
}

// chaosPlan is chaos-ckpt-32's fault schedule.
const chaosPlan = "crash@50:1,crash@90:9,degrade@40-100:2:0.5,blip@70-80:3"

func chaosConfig(w serve.Workload) serve.Config {
	plan, err := serve.ParseFaultPlan(chaosPlan)
	if err != nil {
		panic(err) // a constant plan: only a bug can make it unparsable
	}
	return serve.Config{
		Servers:              32,
		MaxSessionsPerServer: 4,
		Policy:               serve.PolicyPowerAware,
		Approach:             experiments.MAMUT,
		KnowledgeReuse:       true,
		Workload:             w,
		WarmupSec:            30,
		EpochSec:             5,
		Rebalance:            true,
		Autoscale:            serve.AutoscaleConfig{Enabled: true, MaxServers: 40},
		Drain:                []serve.DrainEvent{{AtSec: 30, Server: 0}},
		Queue:                serve.QueueConfig{Capacity: 64},
		Faults:               serve.FaultConfig{Plan: plan, CheckpointSec: 10},
	}
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// prepared is a workload ready to time: the run configuration over the
// generated trace, and the inputs its set-up produced.
type prepared struct {
	cfg      serve.Config
	arrivals []serve.SessionRequest
	// frames is the offered frame budget: the sum of the arrivals'
	// Frames, the base of every per-frame metric.
	frames int64
	// artifact is the exported knowledge the workload imports (nil when
	// it imports none).
	artifact []byte
	// setupS holds each set-up's time.
	setupS []float64
}

// prepare exports the workload's knowledge artifact (untimed) and then
// sets the workload up reps times, timing each set-up. The last set-up's
// configuration is the one the run uses; every set-up builds the same
// one.
func prepare(w *workload, seed int64, reps int) (*prepared, error) {
	p := &prepared{}
	if w.artifact != nil {
		res, err := serve.Run(w.artifact(seed))
		if err != nil {
			return nil, fmt.Errorf("%s: artifact pre-run: %w", w.name, err)
		}
		var buf bytes.Buffer
		if err := res.Knowledge.Export(&buf); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		p.artifact = buf.Bytes()
	}
	catalog := video.DefaultCatalog()
	for r := 0; r < reps; r++ {
		runtime.GC()
		t0 := time.Now()
		arrivals, err := serve.GenerateArrivals(w.shape, catalog, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: generate arrivals: %w", w.name, err)
		}
		cfg := w.config(arrivals)
		cfg.Seed = seed
		cfg.Shards = 1
		cfg.Workers = 1
		if p.artifact != nil {
			ks, err := serve.ImportKnowledge(bytes.NewReader(p.artifact))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			cfg.Knowledge = ks
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		p.cfg, p.arrivals = cfg, arrivals
	}
	for _, a := range p.arrivals {
		p.frames += int64(a.Frames)
	}
	if p.frames == 0 {
		return nil, fmt.Errorf("%s: seed %d generated no frames", w.name, seed)
	}
	return p, nil
}
