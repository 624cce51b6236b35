package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"

	"mamut/internal/serve"
)

// defaultSeed is the seed whose outcome is pinned in expected.json.
const defaultSeed = 1

// expectedJSON pins, per workload, the default seed's exact counts and
// the digest of its full serve.Result. Regenerate an entry with
// -print-expected after a change that is meant to alter simulated
// outcomes; a change that only speeds the simulator up must leave it
// untouched.
//
//go:embed expected.json
var expectedJSON []byte

// expectation is one workload's pinned default-seed outcome.
type expectation struct {
	Counts map[string]int `json:"counts"`
	Digest string         `json:"digest"`
}

// gate is the outcome gate: it collects every failed check of a run.
type gate struct {
	workload string
	failures []string
}

func (g *gate) failf(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

// checkReference checks the reference (warm-up) result: the outcome
// identities on every seed, and on the default seed the pinned counts
// and digest.
func (g *gate) checkReference(r *serve.Result, seed int64) {
	if r.Offered != r.Admitted+r.Rejected+r.QueueDropped {
		g.failf("offered %d != admitted %d + rejected %d + queue-dropped %d", r.Offered, r.Admitted, r.Rejected, r.QueueDropped)
	}
	if r.Queued != r.QueueAdmitted+r.QueueDropped {
		g.failf("queued %d != queue-admitted %d + queue-dropped %d", r.Queued, r.QueueAdmitted, r.QueueDropped)
	}
	if r.Interrupted != r.Recovered+r.Lost {
		g.failf("interrupted %d != recovered %d + lost %d", r.Interrupted, r.Recovered, r.Lost)
	}
	if seed != defaultSeed {
		return
	}
	var all map[string]expectation
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		g.failf("expected.json: %v", err)
		return
	}
	want, ok := all[g.workload]
	if !ok {
		g.failf("expected.json has no entry for %s", g.workload)
		return
	}
	got := resultCounts(r)
	for _, k := range sortedKeys(want.Counts) {
		if got[k] != want.Counts[k] {
			g.failf("%s = %d, expected %d", k, got[k], want.Counts[k])
		}
	}
	digest, err := resultDigest(r)
	if err != nil {
		g.failf("%v", err)
	} else if digest != want.Digest {
		g.failf("result digest %s, expected %s", digest, want.Digest)
	}
}

// fail reports the failed checks and prints a result without metrics:
// a wrong answer posts no number.
func (g *gate) fail(out *output) error {
	for _, f := range g.failures {
		fmt.Fprintln(os.Stderr, "outcome gate:", f)
	}
	out.Correct, out.Failed, out.Metrics = false, len(g.failures), map[string]metric{}
	printJSON(out)
	return fmt.Errorf("%s: outcome gate failed (%d checks)", g.workload, len(g.failures))
}

// checkRepeat checks that a later repetition reproduced the reference
// result exactly.
func (g *gate) checkRepeat(ref, r *serve.Result) {
	if !reflect.DeepEqual(ref, r) {
		g.failf("repetition result differs from the reference run")
	}
}

// resultCounts extracts the exact counts of a result: a change that only
// speeds the simulator up must leave every one of them identical.
func resultCounts(r *serve.Result) map[string]int {
	return map[string]int{
		"serve.offered":                 r.Offered,
		"serve.admitted":                r.Admitted,
		"serve.rejected":                r.Rejected,
		"serve.queued":                  r.Queued,
		"serve.queue_dropped":           r.QueueDropped,
		"serve.knowledge_seeded":        r.KnowledgeSeeded,
		"serve.knowledge_contributions": r.KnowledgeContributions,
		"serve.migrations":              r.Migrations,
		"serve.servers_added":           r.ServersAdded,
		"serve.servers_removed":         r.ServersRemoved,
		"serve.interrupted":             r.Interrupted,
		"serve.recovered":               r.Recovered,
		"serve.lost":                    r.Lost,
	}
}

// resultDigest hashes the full result's JSON encoding.
func resultDigest(r *serve.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("result digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// printExpected prints the expected.json entry a result pins.
func printExpected(name string, seed int64, r *serve.Result) error {
	digest, err := resultDigest(r)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]expectation{name: {Counts: resultCounts(r), Digest: digest}}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("expected entry for seed %d:\n%s\n", seed, b)
	return nil
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
