package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count: bucket i holds observations v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i - 1]; bucket 0 holds v <= 0.
// 64 buckets cover the whole positive int64 range, so the histogram needs
// no configuration and recording is a shift-free array index.
const histBuckets = 64

// Histogram is a fixed-bucket log2-scale histogram. Recording is lock-free
// (three atomic adds); a nil Histogram no-ops. Units are chosen by the
// caller — every duration histogram in names.go records microseconds.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
}

// ObserveSince records the elapsed time since start, in microseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Microseconds())
}

// BucketBound returns the inclusive upper bound of bucket i (0 for bucket
// 0, 2^i - 1 otherwise).
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<i - 1
}

// HistBucket is one non-empty bucket in a histogram snapshot.
type HistBucket struct {
	// Bound is the inclusive upper bound of the bucket.
	Bound int64
	Count int64
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets []HistBucket // non-empty buckets, ascending by bound
}

// Mean returns the arithmetic mean of the recorded values (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the inclusive upper bound of the bucket containing the
// q-quantile observation (q in [0,1]), i.e. an upper estimate with log2
// resolution. Returns 0 when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return b.Bound
		}
	}
	return s.Buckets[len(s.Buckets)-1].Bound
}

// HistSummary carries the standard latency quantiles derived from the
// bucket layout, for exposition and dashboards.
type HistSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// Summary computes count, mean, and p50/p95/p99 in one pass over the
// snapshot.
func (s HistSnapshot) Summary() HistSummary {
	return HistSummary{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
	}
}

// Merge accumulates another snapshot into this one (bucket counts summed by
// bound), used when aggregating per-node registries into a cluster view.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	byBound := make(map[int64]int64, len(s.Buckets)+len(o.Buckets))
	for _, b := range s.Buckets {
		byBound[b.Bound] += b.Count
	}
	for _, b := range o.Buckets {
		byBound[b.Bound] += b.Count
	}
	for bound, n := range byBound {
		out.Buckets = append(out.Buckets, HistBucket{Bound: bound, Count: n})
	}
	sortBuckets(out.Buckets)
	return out
}

func sortBuckets(bs []HistBucket) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].Bound < bs[j-1].Bound; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}

// Snapshot copies the histogram state. Counts are loaded bucket-by-bucket
// without a lock, so a snapshot taken during concurrent recording is
// internally consistent per bucket but may straddle an observation.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Bound: BucketBound(i), Count: n})
		}
	}
	return s
}
