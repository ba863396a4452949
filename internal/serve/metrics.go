package serve

// The serving layer's metrics, all behind one obs.Registry:
//
//   - per-endpoint HTTP counters and a latency histogram (this file),
//     registered once per route when New builds the mux;
//   - engine / kernel / Tx-pool families fed by the repro.Observer hook
//     (observer.go);
//   - store, admission, and Go-runtime families registered as live
//     CounterFunc/GaugeFunc series that read their owners at scrape time
//     (serve.go).
//
// /metrics renders the registry in Prometheus text format and /v1/stats
// serves the same registry as a JSON snapshot, so the two exposition paths
// can never disagree.

import (
	"time"

	"repro/internal/obs"
)

// latencyBucketsMS is the request-latency histogram's upper bounds in
// milliseconds: 0.25 ms .. ~8.4 s, doubling. Wide enough for a cold
// 10^5-cell sweep, fine enough to separate warm replays from simulations.
var latencyBucketsMS = obs.ExpBuckets(0.25, 2, 16)

// route holds one endpoint's request collectors, so the per-request path
// does not re-enter the registry.
type route struct {
	name    string
	count   *obs.Counter
	errors  *obs.Counter
	latency *obs.Histogram
}

// newRoute registers the request series of the endpoint name.
func newRoute(reg *obs.Registry, name string) *route {
	return &route{
		name: name,
		count: reg.Counter("contend_requests_total",
			"HTTP requests by endpoint.", "endpoint", name),
		errors: reg.Counter("contend_request_errors_total",
			"Failed HTTP requests by endpoint.", "endpoint", name),
		latency: reg.Histogram("contend_request_latency_ms",
			"HTTP request latency in milliseconds.", latencyBucketsMS, "endpoint", name),
	}
}

// observe records one completed request.
func (rt *route) observe(d time.Duration, failed bool) {
	rt.count.Inc()
	if failed {
		rt.errors.Inc()
	}
	rt.latency.Observe(float64(d) / float64(time.Millisecond))
}
