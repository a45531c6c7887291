package main

import (
	"math/rand"

	"dmv/internal/tpcw"
)

// workload is one of the four fixed-work TPC-W wirings. Each pair of
// neighbours differs in exactly one layer, so a later change to that layer
// has one workload that exercises it and others that bypass it.
type workload struct {
	name    string
	mix     tpcw.Mix
	rate    int  // measured interactions per second of the --seconds budget
	tcp     bool // every Peer is a transport.RemoteNode over loopback
	durable bool // a persistence tier with a real fsynced WAL acks each commit
}

// The three ordering workloads share one rate, so that they do the same
// fixed work and differ in one layer only. More of it per repetition does
// not steady them: orders pile up, BestSellers slows, and at 6 000
// interactions a client the run-to-run spread of every timing was twice that
// at 5 000. The browsing mix orders a tenth as often, and only one
// interaction in twenty of it is an update: the ordering rate would leave a
// run 1 500 update samples, too few for a steady median.
var workloads = []workload{
	{name: "browsing-inproc", mix: tpcw.BrowsingMix, rate: 2400},
	{name: "ordering-inproc", mix: tpcw.OrderingMix, rate: 1500},
	{name: "ordering-tcp", mix: tpcw.OrderingMix, rate: 1500, tcp: true},
	{name: "ordering-durable", mix: tpcw.OrderingMix, rate: 1500, durable: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The load is a closed loop of two clients (TPC-W callers are application
// servers that wait for each reply) over the data size every recorded
// experiment in this repository uses.
const clients = 2

var scale = tpcw.Scale{Items: 1000, Customers: 500}

// measuredPerClient converts the driver's --seconds budget into fixed work:
// a run of w measures seconds*w.rate interactions in total, whatever the
// machine or the commit, and this is one client's share of them in one
// repetition. TPC-W grows order_line as it runs and BestSellers gets heavier
// with it, so a time-bounded run would hand a faster build a bigger
// database; fixed work gives both sides of a comparison the same logical
// trajectory and makes the counted metrics repeat. A quarter as many warm-up
// interactions run first so statement caches fill and lazy set-up ends
// outside the window.
func measuredPerClient(w workload, seconds, reps int) int {
	n := seconds * w.rate / (clients * reps)
	if n < 1 {
		n = 1
	}
	return n
}

// stepSource feeds Mix.Pick evenly spaced points of [0,1) in place of random
// ones, so a deck of n interactions holds each interaction in exactly the
// mix's proportion. rand.Rand.Float64 is Int63 divided by 2^63.
type stepSource struct{ k, n int64 }

func (s *stepSource) Int63() int64 {
	x := (float64(s.k) + 0.5) / float64(s.n)
	s.k++
	return int64(x * (1 << 63))
}

func (s *stepSource) Seed(int64) {}

// deck returns n interactions in the mix's exact proportions, shuffled by r.
// Stratifying keeps the amount of heavy work (BestSellers, BuyConfirm) the
// same for every seed; the seed decides their order and their parameters.
func deck(mix tpcw.Mix, n int, r *rand.Rand) []tpcw.Interaction {
	steps := rand.New(&stepSource{n: int64(n)})
	d := make([]tpcw.Interaction, n)
	for i := range d {
		d[i] = mix.Pick(steps)
	}
	r.Shuffle(n, func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// clientSeed derives one client's generator seed from the run seed.
func clientSeed(seed int64, client int) int64 { return seed*1000003 + int64(client) + 1 }
