//go:build !dmvdebug

package exec

// debugBuild reports a -tags dmvdebug build, whose seal checks allocate.
const debugBuild = false
