//go:build !dmvdebug

package cluster

// debugBuild turns on the plane's runtime assertions (-tags dmvdebug).
const debugBuild = false
