//go:build !dmvdebug

package value

// Seal and CheckSealed assert that a row the storage engine has published
// (a page slot or an index key) is never written afterwards: readers get
// the stored row itself, not a copy. In release builds they compile to
// nothing; build with -tags dmvdebug to activate the seal registry in
// debug_on.go.

// Seal records r as published. No-op unless built with -tags dmvdebug.
func Seal(Row) {}

// CheckSealed panics if a sealed row has been written since Seal. No-op
// unless built with -tags dmvdebug.
func CheckSealed(Row) {}
