//go:build race

package featurepipe

// raceEnabled lets the allocation guards skip under the race detector,
// whose instrumentation allocates.
const raceEnabled = true
