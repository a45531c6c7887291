// Package app is the metricname fixture for registration sites: names
// come from the obs catalogue, directly or through Labeled, and each one
// must be read somewhere.
package app

import (
	"strings"

	"obs"
)

var dynamicName = "custom_series_total"

func register(r *obs.Registry) {
	r.Counter(obs.Good).Inc()                                          // fine: catalogued constant
	r.Histogram(obs.Labeled(obs.PrefixFam, "k", "v"))                  // fine: Labeled over a catalogued base
	r.Counter(obs.Fed).Inc()                                           // fine, but the name only feeds
	r.Counter(obs.TestRead)                                            // read in a_test.go
	r.Counter(obs.Parked)                                              // unread, suppressed at the declaration
	r.Gauge("dmv_bad_total")                                           // want `Gauge registered with string literal "dmv_bad_total"; declare it in names\.go`
	r.Counter(dynamicName)                                             // want `Counter registered with a non-catalogue name`
	r.GaugeFunc(obs.Labeled(dynamicName), func() float64 { return 0 }) // want `GaugeFunc registered with a non-catalogue name`
}

func read(r *obs.Registry) (int64, float64, int) {
	n := r.Snapshot().Counters[obs.Good] // read by map index
	fam := 0
	for name := range r.Snapshot().Counters {
		if strings.HasPrefix(name, obs.PrefixFam) {
			fam++
		}
	}
	return n + r.Counter(obs.Loaded).Load(), r.Histogram(obs.Snapped).Snapshot(), fam
}

func stray() string {
	return "dmv_stray_bytes" // want `metric-name literal "dmv_stray_bytes" outside names\.go`
}

func suppressed(r *obs.Registry) {
	//dmv:ignore(metricname) fixture: demonstrating a documented suppression
	r.Counter("dmv_suppressed_total")
}
