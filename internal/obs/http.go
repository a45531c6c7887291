package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// WriteText renders the registry in expvar/Prometheus-style text: one
// `name value` line per counter and gauge, and `_count`/`_sum`/
// `_bucket{le="..."}`/`{quantile="..."}` lines per histogram (cumulative
// bucket counts, inclusive upper bounds; quantiles are bucket upper
// bounds, so dashboards and dmv-top never re-derive them).
func (r *Registry) WriteText(w io.Writer) {
	writeSnapshotText(w, r.Snapshot())
}

func writeSnapshotText(w io.Writer, snap Snapshot) {
	for _, name := range sortedKeys(snap.Counters) {
		fmt.Fprintf(w, "%s %d\n", name, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		fmt.Fprintf(w, "%s %g\n", name, snap.Gauges[name])
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum)
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.Bound, cum)
		}
		sum := h.Summary()
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %d\n", name, sum.P50)
		fmt.Fprintf(w, "%s{quantile=\"0.95\"} %d\n", name, sum.P95)
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %d\n", name, sum.P99)
	}
}

// ServeOptions configure Serve beyond the bare registry endpoints.
type ServeOptions struct {
	// Cluster, if non-nil, adds a /cluster endpoint serving the aggregated
	// snapshot from Cluster (JSON by default, the text exposition of the
	// merged metrics with ?format=text), and /stitch also searches the
	// aggregated spans, so a trace spanning several processes stitches
	// whole. The scheduler's scrape loop supplies it (Aggregator.Current).
	Cluster func() ClusterSnapshot
	// Pprof mounts the stdlib net/http/pprof handlers under /debug/pprof/
	// on the same mux, so CPU/heap profiles are grabbable from the metrics
	// port during bench runs. Off by default: the profile endpoints can
	// stall the process (CPU profiling) and leak internals, so daemons
	// gate them behind an explicit -pprof flag.
	Pprof bool
}

// handler builds the mux for the observability endpoints:
//
//	/metrics  — text exposition of every counter, gauge, and histogram
//	          (with per-histogram p50/p95/p99 quantile lines)
//	/trace    — JSON dump of the span ring buffer (oldest first)
//	/stitch   — one trace's spans in causal order (?trace=<id>, default:
//	          the most recent root span's trace)
//	/timeline — JSON dump of the cluster event timeline
//
// plus /cluster and /debug/pprof/ as o asks.
func (r *Registry) handler(o ServeOptions) http.Handler {
	fetch := o.Cluster
	mux := http.NewServeMux()
	if o.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteText(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, r.Tracer().Dump())
	})
	mux.HandleFunc("/stitch", func(w http.ResponseWriter, req *http.Request) {
		spans := r.Tracer().Dump()
		if fetch != nil {
			spans = append(spans, fetch().Spans...)
		}
		id := r.Tracer().LatestTraceID()
		if s := req.URL.Query().Get("trace"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad trace id: "+err.Error(), http.StatusBadRequest)
				return
			}
			id = v
		} else if id == 0 && fetch != nil {
			// No local spans (multiprocess scheduler): fall back to the
			// newest root among the aggregated spans.
			id = latestRootTrace(spans)
		}
		stitched := Stitch(spans, id)
		if stitched == nil {
			stitched = []Span{}
		}
		writeJSON(w, stitched)
	})
	mux.HandleFunc("/timeline", func(w http.ResponseWriter, _ *http.Request) {
		evs := r.Timeline().Events()
		if evs == nil {
			evs = []Event{}
		}
		writeJSON(w, evs)
	})
	if fetch != nil {
		mux.HandleFunc("/cluster", func(w http.ResponseWriter, req *http.Request) {
			cs := fetch()
			if req.URL.Query().Get("format") == "text" {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				writeSnapshotText(w, cs.Merged)
				return
			}
			writeJSON(w, cs)
		})
	}
	return mux
}

func latestRootTrace(spans []Span) uint64 {
	var best Span
	for _, sp := range spans {
		if sp.ParentID == 0 && sp.TraceID != 0 && sp.Start.After(best.Start) {
			best = sp
		}
	}
	return best.TraceID
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Serve exposes the registry's endpoints (see handler) on addr in a
// background goroutine. The returned listener stops the server when
// closed. Used by the -metrics-addr flag of cmd/dmv-node and
// cmd/dmv-scheduler.
func Serve(addr string, r *Registry, o ServeOptions) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := r.handler(o)
	go func() {
		// Serve returns when the listener is closed; the error carries no
		// information the daemon can act on at that point.
		_ = http.Serve(ln, h)
	}()
	return ln, nil
}
