package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"qproc/internal/experiments"
	"qproc/internal/metrics"
)

// Metrics endpoints: the windowed-query view over the per-job progress
// series the executors record.
//
//	GET /v1/jobs/{id}/metrics                      list the job's metric names
//	GET /v1/jobs/{id}/metrics?metric=yield&...     windowed aggregates of one metric
//
// Query parameters: window (Go duration, wall-clock buckets),
// step_window (integer, step-aligned buckets), from/to (RFC3339 bounds),
// agg (count|min|max|mean|last — copies that aggregate into each
// bucket's "value" field for clients that want a single number).

// jobSeriesPrefix names the metrics series of one job's metric.
func jobSeriesPrefix(id string) string { return "job:" + id + "/" }

// recordEventMetrics appends a progress event's numeric facets to the
// metrics store as per-step points, one series per metric name under
// the job's prefix. Best-effort by design: the store bounds its own
// footprint and a metrics-write fault must never fail the job — only
// the journal carries lifecycle truth.
func (s *Server) recordEventMetrics(id string, e experiments.Event) {
	if s.cfg.Metrics == nil || len(e.Series) == 0 {
		return
	}
	now := time.Now().UTC()
	for k, v := range e.Series {
		_ = s.cfg.Metrics.Append(jobSeriesPrefix(id)+k, metrics.Point{T: now, Step: int64(e.Done), V: v})
	}
}

// metricsBucket is one aggregation window in the JSON response: the
// full aggregate set, plus the one the agg parameter selected.
type metricsBucket struct {
	metrics.Agg
	Value *float64 `json:"value,omitempty"`
}

// parseMetricsQuery builds the store query from request parameters;
// the second return is the agg selector ("" when absent).
func parseMetricsQuery(r *http.Request) (metrics.Query, string, error) {
	var q metrics.Query
	if v := r.URL.Query().Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return q, "", fmt.Errorf("window: want a positive Go duration like 500ms, got %q", v)
		}
		q.Window = d
	}
	if v := r.URL.Query().Get("step_window"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return q, "", fmt.Errorf("step_window: want a positive integer, got %q", v)
		}
		q.StepWindow = n
	}
	if q.Window > 0 && q.StepWindow > 0 {
		return q, "", fmt.Errorf("window and step_window are mutually exclusive")
	}
	for name, dst := range map[string]*time.Time{"from": &q.From, "to": &q.To} {
		if v := r.URL.Query().Get(name); v != "" {
			t, err := time.Parse(time.RFC3339Nano, v)
			if err != nil {
				return q, "", fmt.Errorf("%s: want an RFC3339 timestamp, got %q", name, v)
			}
			*dst = t
		}
	}
	agg := r.URL.Query().Get("agg")
	switch agg {
	case "", "count", "min", "max", "mean", "last":
	default:
		return q, "", fmt.Errorf("agg: want count, min, max, mean or last, got %q", agg)
	}
	return q, agg, nil
}

// bucketize renders store aggregates with the selected value copied out.
func bucketize(aggs []metrics.Agg, agg string) []metricsBucket {
	buckets := make([]metricsBucket, 0, len(aggs))
	for _, a := range aggs {
		b := metricsBucket{Agg: a}
		if agg != "" {
			var v float64
			switch agg {
			case "count":
				v = float64(a.Count)
			case "min":
				v = a.Min
			case "max":
				v = a.Max
			case "mean":
				v = a.Mean
			case "last":
				v = a.Last
			}
			b.Value = &v
		}
		buckets = append(buckets, b)
	}
	return buckets
}

// handleJobMetrics serves GET /v1/jobs/{id}/metrics. Without a metric
// parameter it lists the job's recorded metric names; with one it
// returns the windowed aggregates of that series.
func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if s.cfg.Metrics == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no metrics store configured"))
		return
	}
	prefix := jobSeriesPrefix(j.ID)
	metric := r.URL.Query().Get("metric")
	if metric == "" {
		var names []string
		for _, s := range s.cfg.Metrics.SeriesNames(prefix) {
			names = append(names, strings.TrimPrefix(s, prefix))
		}
		writeJSON(w, http.StatusOK, map[string]any{"job": j.ID, "metrics": names})
		return
	}
	q, agg, err := parseMetricsQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	aggs, err := s.cfg.Metrics.Query(prefix+metric, q)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if aggs == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no metric %q recorded for job %s", metric, j.ID))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job": j.ID, "metric": metric, "buckets": bucketize(aggs, agg),
	})
}
