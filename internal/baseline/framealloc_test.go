package baseline

import (
	"fmt"
	"math/rand"
	"testing"

	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// TestFramePathAllocatesNothing pins the steady-state frame event of the
// transcode engine, driven by heuristic controllers, at zero heap
// allocations: every frame begins (controller decision, sanitize against
// the live spec, contention update) and completes (metering, controller
// feedback) without allocating. The residents range from an idle machine
// to an oversubscribed one where the governor steps down from the power
// cap.
func TestFramePathAllocatesNothing(t *testing.T) {
	for _, residents := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("%dresidents", residents), func(t *testing.T) {
			spec := platform.DefaultSpec()
			eng, err := transcode.NewEngine(spec, hevc.DefaultModel(), 31)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < residents; i++ {
				seq := &video.Sequence{
					Name: "alloc", Res: video.HR, Frames: 1 << 30, FrameRate: 24,
					BaseComplexity: 1.0, Dynamism: 0.4, MeanSceneLen: 90,
				}
				src, err := video.NewGenerator(seq, rand.New(rand.NewSource(int64(40+i))))
				if err != nil {
					t.Fatal(err)
				}
				h, err := NewHeuristic(heurCfg(), initSettings)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.AddSession(transcode.SessionConfig{
					Source: src, Controller: h, Initial: initSettings,
					BandwidthMbps: 6, FrameBudget: 1 << 30,
				}); err != nil {
					t.Fatal(err)
				}
			}
			frames := 0
			eng.OnFrame(func(transcode.Observation) { frames++ })
			// Warm up past admission, so the completion heap and the
			// completion batch have reached their steady capacity.
			now := 5.0
			if err := eng.AdvanceTo(now); err != nil {
				t.Fatal(err)
			}
			frames = 0
			allocs := testing.AllocsPerRun(50, func() {
				now += 0.25
				if err := eng.AdvanceTo(now); err != nil {
					t.Fatal(err)
				}
			})
			if frames < 50*residents {
				t.Fatalf("only %d frames completed: the window did not exercise the frame path", frames)
			}
			if allocs != 0 {
				t.Errorf("%g allocations per AdvanceTo step, want 0", allocs)
			}
		})
	}
}
