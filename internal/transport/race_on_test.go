//go:build race

package transport

// raceBuild reports a -race build, whose instrumentation allocates.
const raceBuild = true
