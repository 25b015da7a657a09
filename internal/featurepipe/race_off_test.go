//go:build !race

package featurepipe

const raceEnabled = false
