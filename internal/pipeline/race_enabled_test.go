//go:build race

package pipeline

// raceEnabled reports whether this build runs under the race detector,
// whose instrumentation perturbs allocation counts.
const raceEnabled = true
