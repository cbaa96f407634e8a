//go:build !race

package invoke

const raceEnabled = false
