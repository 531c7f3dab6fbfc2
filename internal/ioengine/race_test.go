//go:build race

package ioengine

// raceEnabled reports that the race detector is instrumenting this build:
// sync.Pool then drops a share of what is put into it, so allocation counts
// measure the detector, not the engine.
const raceEnabled = true
