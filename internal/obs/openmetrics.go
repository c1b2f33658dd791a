package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// OpenMetricsContentType is the Content-Type the /metrics handler serves.
// The output is simultaneously valid Prometheus text format (the subset we
// emit is shared), so classic scrapers consume it unchanged.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics writes the registry's current state in OpenMetrics text
// exposition format, the lingua franca of Prometheus-compatible scrapers:
//
//   - counters become "<name>_total" counter samples;
//   - gauges become plain gauge samples;
//   - histograms become classic cumulative-bucket histograms with "le"
//     labels derived from the log-2 bucket upper bounds, and span timers
//     become such histograms named "<name>_seconds";
//   - windowed histograms additionally export "<name>_p50" / "<name>_p99"
//     gauges over the merged window and a "<name>_per_sec" observation rate,
//     so a scrape sees the last-window tail without needing PromQL.
//
// Metric names map dot-separated registry names onto the Prometheus grammar
// by flattening dots to underscores. Families are emitted in sorted name
// order, and the stream ends with the OpenMetrics "# EOF" terminator.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	s := r.Snapshot()
	ew := &errWriter{w: w}
	for _, n := range sortedNames(s.Counters) {
		fam := promName(n)
		ew.printf("# TYPE %s counter\n%s_total %d\n", fam, fam, s.Counters[n])
	}
	for _, n := range sortedNames(s.Gauges) {
		fam := promName(n)
		ew.printf("# TYPE %s gauge\n%s %d\n", fam, fam, s.Gauges[n])
	}
	for _, n := range sortedNames(s.Timers) {
		t := s.Timers[n]
		writeHistogramFamily(ew, promName(n)+"_seconds", HistogramSnapshot{
			Count: t.Count, Sum: t.TotalSeconds, Min: t.MinSeconds, Max: t.MaxSeconds, Buckets: t.Buckets,
		})
	}
	for _, n := range sortedNames(s.Histograms) {
		writeHistogramFamily(ew, promName(n), s.Histograms[n])
	}
	for _, n := range sortedNames(s.Windows) {
		ws := s.Windows[n]
		fam := promName(n)
		writeHistogramFamily(ew, fam, ws.HistogramSnapshot)
		ew.printf("# TYPE %s_window_seconds gauge\n%s_window_seconds %s\n", fam, fam, promFloat(ws.WindowSeconds))
		// An empty window has no quantiles: Quantile over zero observations
		// returns NaN, and "NaN" is not a sample value strict OpenMetrics
		// parsers accept. Omit the _p50/_p99 families entirely on a cold
		// scrape (absent-metric is the Prometheus idiom for "no data yet")
		// and drop any non-finite sample defensively.
		if ws.Count > 0 {
			writeFiniteGauge(ew, fam+"_p50", ws.Quantile(0.50))
			writeFiniteGauge(ew, fam+"_p99", ws.Quantile(0.99))
		}
		rate := 0.0
		if ws.WindowSeconds > 0 {
			rate = float64(ws.Count) / ws.WindowSeconds
		}
		ew.printf("# TYPE %s_per_sec gauge\n%s_per_sec %s\n", fam, fam, promFloat(rate))
	}
	ew.printf("# EOF\n")
	return ew.err
}

// writeHistogramFamily emits one classic Prometheus histogram: cumulative
// buckets keyed by upper bound, the mandatory "+Inf" bucket, sum, and count.
func writeHistogramFamily(ew *errWriter, fam string, h HistogramSnapshot) {
	ew.printf("# TYPE %s histogram\n", fam)
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		ew.printf("%s_bucket{le=\"%s\"} %d\n", fam, promFloat(b.Hi), cum)
	}
	ew.printf("%s_bucket{le=\"+Inf\"} %d\n", fam, h.Count)
	ew.printf("%s_sum %s\n%s_count %d\n", fam, promFloat(h.Sum), fam, h.Count)
}

// writeFiniteGauge emits a single-sample gauge family, skipping it (TYPE
// line included) when the value is NaN or infinite — %g would render them
// as "NaN"/"+Inf", which strict scrapers reject.
func writeFiniteGauge(ew *errWriter, fam string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	ew.printf("# TYPE %s gauge\n%s %s\n", fam, fam, promFloat(v))
}

// promName flattens a dotted registry name onto the Prometheus name grammar.
func promName(name string) string {
	return strings.ReplaceAll(name, ".", "_")
}

// promFloat renders a float sample value; the %g forms OpenMetrics accepts.
func promFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// errWriter latches the first write error so the exposition loop stays
// linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}
