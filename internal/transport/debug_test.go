//go:build !dmvdebug

package transport

// debugBuild reports a -tags dmvdebug build, whose seal checks allocate.
const debugBuild = false
