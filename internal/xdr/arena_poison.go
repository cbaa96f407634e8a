//go:build xdrpoison

package xdr

// poisonOnRelease: this build scribbles over lent-out arena memory on
// Release (see Arena.Release). `make test-poison` runs the invoke, core
// and dvm suites this way.
const poisonOnRelease = true
