//go:build race

package rolag_test

// raceEnabled reports whether the race detector instruments this build;
// its overhead distorts the wall-time ratios the scaling gate checks.
const raceEnabled = true
