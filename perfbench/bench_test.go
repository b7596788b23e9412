package main

import (
	"reflect"
	"testing"
)

// TestTracingDoesNotPerturbSimulation runs one round of every workload
// untraced and one traced, on the default seed: instrumentation must not
// move a single simulated bit, so both rounds must agree on the
// sim_fingerprint and on every simulated metric. It also logs the host
// overhead of tracing and checks that the CPU profile was decoded and
// charged to engine modules.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := w.inputs(defaultSeed)
			plain, err := runRound(w, in, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRound(w, in, newTracer(), false)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*round{plain, traced} {
				if len(r.problems) > 0 {
					t.Errorf("checks failed: %v", r.problems)
				}
			}
			if plain.fingerprint != traced.fingerprint {
				t.Errorf("sim_fingerprint %016x untraced, %016x traced", plain.fingerprint, traced.fingerprint)
			}
			if !reflect.DeepEqual(plain.sim, traced.sim) {
				t.Errorf("simulated end-to-end metrics differ:\nuntraced %v\ntraced   %v", plain.sim, traced.sim)
			}
			if !reflect.DeepEqual(plain.layer, traced.layer) {
				t.Errorf("simulated per-layer metrics differ:\nuntraced %v\ntraced   %v", plain.layer, traced.layer)
			}
			var engine, all float64
			for m, n := range traced.trace.prof {
				all += n
				if m != "other" && m != "gc" {
					engine += n
				}
			}
			if engine == 0 {
				t.Errorf("no CPU-profile sample was charged to an engine module (%v samples in all)", all)
			}
			t.Logf("timed phase %.3f s untraced, %.3f s traced: tracing overhead %+.1f%%",
				plain.timed.Seconds(), traced.timed.Seconds(),
				100*(traced.timed.Seconds()/plain.timed.Seconds()-1))
		})
	}
}
