//go:build !xdrpoison

package xdr

const poisonOnRelease = false
