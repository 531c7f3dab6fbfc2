//go:build !race

package ioengine

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
