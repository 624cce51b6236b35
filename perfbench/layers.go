package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"mamut/internal/core"
	"mamut/internal/experiments"
	"mamut/internal/heaps"
	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/serve"
	"mamut/internal/transcode"
	"mamut/internal/video"
	"mamut/internal/xrand"
)

// Layer probes time the inner modules' public functions from outside,
// on inputs taken from the workload: its arrivals, its reference result
// and its configuration. Sample counts are fixed, so a probe's counts
// repeat exactly; a layer that does not run on a workload reports zeros.
const (
	// batch is how many sub-microsecond calls one timing sample covers.
	batch = 1024
	// batchSamples is the sample count of batched probes.
	batchSamples = 200
	// callSamples is the sample count of per-call probes.
	callSamples = 500
	// slowSamples is the sample count of per-call probes whose calls
	// take milliseconds (artifact import, the session-state codec).
	slowSamples = 100
	// engineSamples is how many engines the engine probe runs.
	engineSamples = 60
	// decisionEngines is how many engines the decision probe runs.
	decisionEngines = 20
)

// env bundles what every probe builds from.
type env struct {
	spec     platform.Spec
	model    hevc.Model
	catalog  *video.Catalog
	shape    serve.Workload
	cfg      serve.Config
	arrivals []serve.SessionRequest
	artifact []byte
	ref      *serve.Result
}

func runLayerProbes(l ledger, w *workload, p *prepared, ref *serve.Result) error {
	e := &env{
		shape:    w.shape,
		spec:     platform.DefaultSpec(),
		model:    hevc.DefaultModel(),
		catalog:  video.DefaultCatalog(),
		cfg:      p.cfg,
		arrivals: p.arrivals,
		artifact: p.artifact,
		ref:      ref,
	}
	steps := []struct {
		name string
		run  func(ledger) error
	}{
		{"serve.GenerateArrivals", e.generateArrivals},
		{"serve.ImportKnowledge", e.importKnowledge},
		{"transcode.Engine", e.engine},
		{"controller decisions", e.decisions},
		{"core.NewWarm", e.newWarm},
		{"serve.KnowledgeStore.Contribute", e.contribute},
		{"transcode checkpoint codec", e.checkpoint},
		{"heaps.Heap", e.heap},
		{"hevc.Encoder.FrameQuality", e.frameQuality},
		{"video.Source.Next", e.nextFrame},
		{"platform.Server.MeterPower", e.meterPower},
	}
	for _, s := range steps {
		if err := s.run(l); err != nil {
			return fmt.Errorf("layer probe %s: %w", s.name, err)
		}
	}
	return nil
}

// timeCalls times fn once per sample and returns the per-sample ns and
// the bytes allocated per call.
func timeCalls(samples int, fn func(i int) error) ([]float64, float64, error) {
	ns := make([]float64, samples)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := range ns {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, 0, err
		}
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	runtime.ReadMemStats(&ms)
	return ns, float64(ms.TotalAlloc-before) / float64(samples), nil
}

// timeBatches times batchSamples batches of batch calls each and returns
// ns per call for each batch.
func timeBatches(fn func()) []float64 {
	ns := make([]float64, batchSamples)
	for i := range ns {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		ns[i] = float64(time.Since(t0).Nanoseconds()) / batch
	}
	return ns
}

func (e *env) generateArrivals(l ledger) error {
	ns, _, err := timeCalls(21, func(int) error {
		_, err := serve.GenerateArrivals(e.shape, e.catalog, e.cfg.Seed)
		return err
	})
	if err != nil {
		return err
	}
	for i := range ns {
		ns[i] /= float64(len(e.arrivals))
	}
	l.timing("serve.generate_arrivals_ns_per_arrival", "ns", ns, "")
	return nil
}

func (e *env) importKnowledge(l ledger) error {
	var ns []float64
	if artifact := e.artifact; artifact != nil {
		var err error
		ns, _, err = timeCalls(slowSamples, func(int) error {
			_, err := serve.ImportKnowledge(bytes.NewReader(artifact))
			return err
		})
		if err != nil {
			return err
		}
	}
	l.timing("serve.import_knowledge_ns", "ns", ns, "")
	return nil
}

// occupancy is the workload's mean resident sessions per server over the
// measurement window (at least one).
func (e *env) occupancy() int {
	sum := 0.0
	for _, s := range e.ref.Servers {
		sum += s.UtilizationPct
	}
	k := int(math.Round(sum / float64(len(e.ref.Servers)) / 100 * float64(e.cfg.MaxSessionsPerServer)))
	if k < 1 {
		k = 1
	}
	return k
}

// newEngine builds server 0's engine with sessions for the given
// arrivals, each controlled by ctrl(i, req).
func (e *env) newEngine(reqs []serve.SessionRequest, ctrl func(i int, req serve.SessionRequest) (transcode.Controller, error)) (*transcode.Engine, error) {
	eng, err := transcode.NewEngine(e.spec, e.model, experiments.SubSeed(e.cfg.Seed, "serve|server", 0))
	if err != nil {
		return nil, err
	}
	eng.DiscardDeparted(true)
	for i, req := range reqs {
		seq, err := e.catalog.Get(req.Sequence)
		if err != nil {
			return nil, err
		}
		src, err := video.NewStatefulGenerator(seq, req.SourceSeed)
		if err != nil {
			return nil, err
		}
		c, err := ctrl(i, req)
		if err != nil {
			return nil, err
		}
		if _, err := eng.AddSession(transcode.SessionConfig{
			Source:        src,
			Controller:    c,
			Initial:       experiments.InitialSettings(req.Res),
			BandwidthMbps: req.BandwidthMbps,
			FrameBudget:   req.Frames,
			StartAtSec:    req.ArriveAtSec - reqs[0].ArriveAtSec,
		}); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// engine times transcode.Engine alone: the workload's first sessions at
// its mean occupancy, under fixed-knob (Static) controllers.
func (e *env) engine(l ledger) error {
	reqs := e.arrivals[:e.occupancy()]
	frames := 0
	for _, r := range reqs {
		frames += r.Frames
	}
	ns := make([]float64, engineSamples)
	var alloc uint64
	var ms runtime.MemStats
	for i := range ns {
		eng, err := e.newEngine(reqs, func(_ int, req serve.SessionRequest) (transcode.Controller, error) {
			return &transcode.Static{S: experiments.InitialSettings(req.Res)}, nil
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t0 := time.Now()
		if _, err := eng.Run(); err != nil {
			return err
		}
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(frames)
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - before
	}
	l.timing("transcode.engine_ns_per_frame", "ns", ns, "")
	l.set("transcode.engine_alloc_bytes_per_frame", "B", float64(alloc)/float64(engineSamples*frames))
	return nil
}

// timedController times one session controller's decisions: a decision
// is one OnFrameStart plus the matching OnFrameDone.
type timedController struct {
	inner   transcode.Controller
	pending int64
	out     *[]float64
}

func (c *timedController) Name() string { return c.inner.Name() }

func (c *timedController) OnFrameStart(fs transcode.FrameStart) transcode.Settings {
	t0 := time.Now()
	s := c.inner.OnFrameStart(fs)
	c.pending = int64(time.Since(t0))
	return s
}

func (c *timedController) OnFrameDone(obs transcode.Observation) {
	t0 := time.Now()
	c.inner.OnFrameDone(obs)
	*c.out = append(*c.out, float64(c.pending+int64(time.Since(t0))))
}

// factory builds the workload's controllers as the service does,
// warm-started from the workload's final knowledge store when it reuses
// knowledge.
func (e *env) factory() (experiments.ControllerFactory, error) {
	opts := experiments.Options{Spec: e.spec, Model: e.model}
	if e.ref.Knowledge != nil {
		ks := e.ref.Knowledge
		opts.WarmStart = func(res video.Resolution) *core.Snapshot { return ks.Seed(res) }
	}
	return experiments.Factory(e.cfg.Approach, opts)
}

// decisions times the workload's own controller (heuristic or MAMUT) on
// an engine at the workload's mean occupancy.
func (e *env) decisions(l ledger) error {
	factory, err := e.factory()
	if err != nil {
		return err
	}
	reqs := e.arrivals[:e.occupancy()]
	var ns []float64
	for i := 0; i < decisionEngines; i++ {
		eng, err := e.newEngine(reqs, func(_ int, req serve.SessionRequest) (transcode.Controller, error) {
			c, err := factory(req.Res, experiments.InitialSettings(req.Res), xrand.New(req.ControllerSeed))
			if err != nil {
				return nil, err
			}
			return &timedController{inner: c, out: &ns}, nil
		})
		if err != nil {
			return err
		}
		if _, err := eng.Run(); err != nil {
			return err
		}
	}
	var heuristic, mamut []float64
	if e.cfg.Approach == experiments.MAMUT {
		mamut = ns
	} else {
		heuristic = ns
	}
	l.timing("baseline.heuristic_ns_per_decision", "ns", heuristic, "")
	l.timing("core.mamut_ns_per_decision", "ns", mamut, "")
	return nil
}

// newWarm times core.NewWarm seeding from the workload's harvested
// knowledge, for the workload's arrivals in order.
func (e *env) newWarm(l ledger) error {
	var (
		ns      []float64
		perCall float64
	)
	if e.ref.Knowledge != nil {
		rngs := make([]*rand.Rand, callSamples)
		for i := range rngs {
			rngs[i] = xrand.New(e.arrivals[i%len(e.arrivals)].ControllerSeed)
		}
		var err error
		ns, perCall, err = timeCalls(callSamples, func(i int) error {
			req := e.arrivals[i%len(e.arrivals)]
			cfg := core.DefaultConfig(req.Res, e.spec, e.model.MaxUsefulThreads(req.Res))
			_, err := core.NewWarm(cfg, experiments.InitialSettings(req.Res), rngs[i], e.ref.Knowledge.Seed(req.Res))
			return err
		})
		if err != nil {
			return err
		}
	}
	l.timing("core.new_warm_ns", "ns", ns, "")
	l.set("core.new_warm_bytes", "B", perCall)
	return nil
}

// contribute times KnowledgeStore.Contribute folding the workload's
// harvested class snapshots, in arrival order, into a store that already
// holds them.
func (e *env) contribute(l ledger) error {
	var (
		ns      []float64
		perCall float64
	)
	if ks := e.ref.Knowledge; ks != nil {
		store := serve.NewKnowledgeStore()
		for _, res := range []video.Resolution{video.HR, video.LR} {
			if snap := ks.Seed(res); snap != nil {
				if err := store.Contribute(res, *snap); err != nil {
					return err
				}
			}
		}
		var reqs []serve.SessionRequest
		for _, r := range e.arrivals {
			if ks.Seed(r.Res) != nil {
				reqs = append(reqs, r)
			}
		}
		var err error
		ns, perCall, err = timeCalls(callSamples, func(i int) error {
			res := reqs[i%len(reqs)].Res
			return store.Contribute(res, *ks.Seed(res))
		})
		if err != nil {
			return err
		}
	}
	l.timing("serve.knowledge_contribute_ns", "ns", ns, "")
	l.set("serve.knowledge_contribute_bytes", "B", perCall)
	return nil
}

// resumable makes a MAMUT controller migratable the way the service
// does: the resume payload plus the exploration rng's stream position.
type resumable struct {
	*core.Controller
	src *xrand.Source
}

type resumableState struct {
	Resume json.RawMessage `json:"resume"`
	RNG    uint64          `json:"rng"`
}

func (c *resumable) ControllerState() ([]byte, error) {
	resume, err := c.MarshalResumeState()
	if err != nil {
		return nil, err
	}
	return json.Marshal(resumableState{Resume: resume, RNG: c.src.State()})
}

func (c *resumable) RestoreControllerState(data []byte) error {
	var st resumableState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if err := c.RestoreResumeState(st.Resume); err != nil {
		return err
	}
	c.src.SetState(st.RNG)
	return nil
}

// checkpoint times the session-state codec on a resident MAMUT session
// at the workload's first checkpoint instant: the checkpoint round trip
// (ExtractSession + EncodeSessionState + InjectSession back into the
// same engine) and a restore onto a fresh engine (DecodeSessionState +
// InjectSession).
func (e *env) checkpoint(l ledger) error {
	var (
		ckptNs, restoreNs []float64
		perCall, payload  float64
	)
	if at := e.cfg.Faults.CheckpointSec; at > 0 && e.cfg.Approach == experiments.MAMUT {
		factory, err := e.factory()
		if err != nil {
			return err
		}
		build := func(req serve.SessionRequest) (*resumable, error) {
			src := xrand.NewSource(req.ControllerSeed)
			c, err := factory(req.Res, experiments.InitialSettings(req.Res), rand.New(src))
			if err != nil {
				return nil, err
			}
			mc, ok := c.(*core.Controller)
			if !ok {
				return nil, fmt.Errorf("factory built %T, not a MAMUT controller", c)
			}
			return &resumable{Controller: mc, src: src}, nil
		}
		reqs := e.arrivals[:e.cfg.MaxSessionsPerServer]
		eng, err := e.newEngine(reqs, func(_ int, req serve.SessionRequest) (transcode.Controller, error) { return build(req) })
		if err != nil {
			return err
		}
		if err := eng.AdvanceTo(at); err != nil {
			return err
		}
		// The first session still resident at the checkpoint instant.
		id, req := -1, serve.SessionRequest{}
		for i := range reqs {
			if st, err := eng.ExtractSession(i); err == nil {
				if _, err := eng.InjectSession(nil, nil, st); err != nil {
					return err
				}
				id, req = i, reqs[i]
				break
			}
		}
		if id < 0 {
			return fmt.Errorf("no session resident at %g s", at)
		}
		var data []byte
		ckptNs, perCall, err = timeCalls(slowSamples, func(int) error {
			st, err := eng.ExtractSession(id)
			if err != nil {
				return err
			}
			if data, err = transcode.EncodeSessionState(st); err != nil {
				return err
			}
			_, err = eng.InjectSession(nil, nil, st)
			return err
		})
		if err != nil {
			return err
		}
		payload = float64(len(data))

		seq, err := e.catalog.Get(req.Sequence)
		if err != nil {
			return err
		}
		restoreNs = make([]float64, slowSamples)
		for i := range restoreNs {
			dst, err := transcode.NewEngine(e.spec, e.model, experiments.SubSeed(e.cfg.Seed, "serve|server", 1))
			if err != nil {
				return err
			}
			if err := dst.AdvanceTo(at); err != nil {
				return err
			}
			src, err := video.NewStatefulGenerator(seq, req.SourceSeed)
			if err != nil {
				return err
			}
			ctrl, err := build(req)
			if err != nil {
				return err
			}
			t0 := time.Now()
			st, err := transcode.DecodeSessionState(data)
			if err != nil {
				return err
			}
			if _, err := dst.InjectSession(src, ctrl, st); err != nil {
				return err
			}
			restoreNs[i] = float64(time.Since(t0).Nanoseconds())
		}
	}
	l.timing("transcode.checkpoint_ns", "ns", ckptNs, "")
	l.set("transcode.checkpoint_bytes", "B", perCall)
	l.set("transcode.checkpoint_payload_bytes", "B", payload)
	l.timing("transcode.restore_ns", "ns", restoreNs, "")
	return nil
}

// fleetEvent mirrors the dispatcher's event-heap entry: a server's next
// event time, ties broken by server index.
type fleetEvent struct {
	at     float64
	server int
}

func (a fleetEvent) Less(b fleetEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.server < b.server
}

// heap times one pop plus one push on a heap as deep as the workload's
// peak fleet.
func (e *env) heap(l ledger) error {
	rng := xrand.New(e.cfg.Seed)
	var h heaps.Heap[fleetEvent]
	for i := 0; i < e.ref.PeakServers; i++ {
		h.Push(fleetEvent{at: rng.Float64(), server: i})
	}
	l.timing("heaps.push_pop_ns", "ns", timeBatches(func() {
		ev := h.Pop()
		ev.at += rng.ExpFloat64() / 24
		h.Push(ev)
	}), "")
	return nil
}

// firstSource returns the content stream of the workload's first
// arrival.
func (e *env) firstSource() (video.Source, serve.SessionRequest, error) {
	req := e.arrivals[0]
	seq, err := e.catalog.Get(req.Sequence)
	if err != nil {
		return nil, req, err
	}
	src, err := video.NewStatefulGenerator(seq, req.SourceSeed)
	return src, req, err
}

func (e *env) frameQuality(l ledger) error {
	src, req, err := e.firstSource()
	if err != nil {
		return err
	}
	enc, err := hevc.NewEncoder(req.Res, hevc.PresetFor(req.Res), e.model, xrand.New(req.ControllerSeed))
	if err != nil {
		return err
	}
	complexity := make([]float64, batch)
	for i := range complexity {
		complexity[i] = src.Next().Complexity
	}
	qp := experiments.InitialSettings(req.Res).QP
	i := 0
	var qerr error
	ns := timeBatches(func() {
		if _, _, err := enc.FrameQuality(qp, complexity[i%batch]); err != nil {
			qerr = err
		}
		i++
	})
	if qerr != nil {
		return qerr
	}
	l.timing("hevc.frame_quality_ns", "ns", ns, "")
	return nil
}

func (e *env) nextFrame(l ledger) error {
	src, _, err := e.firstSource()
	if err != nil {
		return err
	}
	l.timing("video.next_frame_ns", "ns", timeBatches(func() { src.Next() }), "")
	return nil
}

func (e *env) meterPower(l ledger) error {
	srv, err := platform.NewServer(e.spec, xrand.New(experiments.SubSeed(e.cfg.Seed, "serve|server", 0)))
	if err != nil {
		return err
	}
	ideal := e.spec.IdlePowerW + 4*e.spec.DynPowerPerCoreW
	l.timing("platform.meter_power_ns", "ns", timeBatches(func() { srv.MeterPower(ideal) }), "")
	return nil
}
