//go:build !race

package xdr

const raceEnabled = false
