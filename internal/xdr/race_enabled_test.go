//go:build race

package xdr

// raceEnabled reports whether the race detector is compiled in; under it
// sync.Pool drops items at random, so pool-backed allocation bounds skip.
const raceEnabled = true
