//go:build race

package invoke

// raceEnabled reports whether the race detector is compiled in; under it
// sync.Pool drops items at random and every allocation grows a shadow, so
// allocation bounds skip.
const raceEnabled = true
