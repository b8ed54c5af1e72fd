//go:build !race

package rolag_test

const raceEnabled = false
