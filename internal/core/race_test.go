//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of the buffers it is handed, so allocation counts
// of the pooled exchange engines measure the detector, not the engine.
const raceEnabled = true
