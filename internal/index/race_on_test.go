//go:build race

package index

// raceEnabled lets the size-heavy identity tests shrink under the race
// detector, which is there to find races, not to re-prove bit-identity
// at full size ten times slower.
const raceEnabled = true
