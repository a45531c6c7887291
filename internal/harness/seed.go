package harness

// DeriveSeed maps a root seed and a scenario name to a stable per-scenario
// seed. The overload experiment derives each arm's open-loop arrival seed
// from the run's root seed, so (a) one root seed always replays the same
// arrival streams and (b) the two arms never share a seed, which would
// correlate their random streams. FNV-1a folds the name, splitmix64
// decorrelates the result; both are fixed algorithms, so derived seeds are
// portable across hosts and Go versions.
func DeriveSeed(root int64, name string) int64 {
	// FNV-1a over the scenario name.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	// splitmix64 finalizer over root ⊕ name-hash.
	z := uint64(root) ^ h
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Seeds of 0 mean "use the default" to several consumers (harness.Run,
	// transport backoff); avoid handing one out.
	if z == 0 {
		z = 1
	}
	return int64(z)
}
