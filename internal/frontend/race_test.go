//go:build race

package frontend

// raceEnabled reports whether the race detector instruments this test
// binary.
const raceEnabled = true
