package obs

// The obs package's own code and tests use names as samples, so this read
// does not count and OwnRead is still flagged.
func sampleRead(r *Registry) int64 { return r.Snapshot().Counters[OwnRead] }
