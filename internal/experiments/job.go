package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"qproc/internal/mapper"
	"qproc/internal/runstore"
	"qproc/internal/search"
)

// Job is the unit of work the evaluation engine executes. Sweep, Search
// and Portfolio are its implementations: all normalise to a canonical,
// JSON-serialisable spec (so equal work hashes equally and can be looked
// up in a run store before it is recomputed), report progress through
// one Event type, and produce a JSON-serialisable Outcome. The CLIs and
// the qserve service submit work exclusively in this shape.
type Job interface {
	// Kind names the job type: "sweep", "search" or "portfolio".
	Kind() string
	// Normalize returns the job with every defaulted axis filled in under
	// the runner options, so two specs describing the same work compare
	// and hash identically.
	Normalize(opt Options) Job
	// Summary is a human-readable one-liner for listings and progress.
	Summary() string
	// Run executes the job on the runner. progress may be nil. ctx
	// cancels cooperatively: a cancelled job returns an error wrapping
	// ctx.Err() within one proposal batch / trial chunk; a live ctx
	// never changes the result.
	Run(ctx context.Context, r *Runner, progress func(Event)) (Outcome, error)
	// Timeout is the spec's wall-clock deadline per run; zero means
	// none. Executors enforce it with a deadline context around Run.
	Timeout() time.Duration
	// spec exposes the raw spec for fingerprinting. Unexported: this
	// package defines the closed set of job kinds.
	spec() any
}

// Outcome is the JSON-serialisable result of a Job.
type Outcome interface {
	WriteJSON(w io.Writer) error
}

// Event is the unified progress event of every job kind, safe to stream
// to clients as one JSON line per event. Events may arrive from multiple
// goroutines when the runner is parallel.
type Event struct {
	// Done/Total count finished sweep cells or search steps.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Message describes the step in job-kind terms.
	Message string `json:"message,omitempty"`
	// Err carries a cell failure, rendered (errors do not round-trip
	// through JSON).
	Err string `json:"err,omitempty"`
	// Series carries the numeric facets of the report, keyed by metric
	// name — what a metrics store records as per-step time-series points
	// alongside the human-readable Message.
	Series map[string]float64 `json:"series,omitempty"`
}

// Event converts a sweep progress report.
func (p SweepProgress) Event() Event {
	e := Event{
		Done: p.Done, Total: p.Total, Message: p.Cell.String(),
		Series: map[string]float64{"cells_done": float64(p.Done)},
	}
	if p.Err != nil {
		e.Err = p.Err.Error()
	}
	return e
}

// Event converts a search progress report.
func (p SearchProgress) Event() Event {
	msg := fmt.Sprintf("best yield %.4f (E=%.3f, %d evals)",
		p.BestYield, p.BestExpected, p.Evals)
	if p.CondSkipped > 0 {
		msg += fmt.Sprintf(", %.0f%% cond-checks skipped",
			100*float64(p.CondSkipped)/float64(p.CondChecks+p.CondSkipped))
	}
	series := map[string]float64{
		"yield":    p.BestYield,
		"expected": p.BestExpected,
		"evals":    float64(p.Evals),
	}
	if p.LanesLive+p.LanesDone > 0 {
		msg += fmt.Sprintf(", lanes %d live / %d done", p.LanesLive, p.LanesDone)
		series["lanes_live"] = float64(p.LanesLive)
		series["lanes_done"] = float64(p.LanesDone)
	}
	return Event{Done: p.Step, Total: p.Total, Message: msg, Series: series}
}

// SweepJob runs an exhaustive design-space sweep.
type SweepJob struct {
	Spec SweepSpec `json:"spec"`
}

func (j SweepJob) Kind() string { return "sweep" }

func (j SweepJob) Normalize(opt Options) Job {
	j.Spec = j.Spec.withDefaults()
	return j
}

func (j SweepJob) Summary() string {
	s := j.Spec
	out := fmt.Sprintf("sweep %v × %d configs × aux %v × %d sigmas",
		s.Benchmarks, len(s.Configs), s.AuxCounts, len(s.Sigmas))
	if s.Topology != "" {
		out += " on " + s.Topology
	}
	return out
}

func (j SweepJob) Run(ctx context.Context, r *Runner, progress func(Event)) (Outcome, error) {
	var cb func(SweepProgress)
	if progress != nil {
		cb = func(p SweepProgress) { progress(p.Event()) }
	}
	return r.Sweep(ctx, j.Spec, cb)
}

func (j SweepJob) spec() any { return j.Spec }

func (j SweepJob) Timeout() time.Duration { return time.Duration(j.Spec.TimeoutSec) * time.Second }

// SearchJob runs a guided design-space search.
type SearchJob struct {
	Spec SearchSpec `json:"spec"`
}

func (j SearchJob) Kind() string { return "search" }

func (j SearchJob) Normalize(opt Options) Job {
	j.Spec, _ = j.Spec.withDefaults(opt)
	return j
}

func (j SearchJob) Summary() string {
	s := j.Spec
	out := fmt.Sprintf("search %s %s aux %v", s.Strategy, s.Benchmark, s.AuxCounts)
	if s.Topology != "" {
		out += " on " + s.Topology
	}
	return out
}

func (j SearchJob) Run(ctx context.Context, r *Runner, progress func(Event)) (Outcome, error) {
	var cb func(SearchProgress)
	if progress != nil {
		cb = func(p SearchProgress) { progress(p.Event()) }
	}
	return r.Search(ctx, j.Spec, cb)
}

func (j SearchJob) spec() any { return j.Spec }

func (j SearchJob) Timeout() time.Duration { return time.Duration(j.Spec.TimeoutSec) * time.Second }

// ParseJob builds a Job from a kind name and a raw JSON spec — the shape
// qserve clients submit. Unknown fields are rejected so a typoed axis
// name fails loudly instead of silently sweeping the default space.
func ParseJob(kind string, spec json.RawMessage) (Job, error) {
	if len(spec) == 0 {
		spec = json.RawMessage("{}")
	}
	switch kind {
	case "sweep":
		var s SweepSpec
		if err := decodeStrict(spec, &s); err != nil {
			return nil, fmt.Errorf("experiments: sweep spec: %w", err)
		}
		return SweepJob{Spec: s}, nil
	case "search":
		var s SearchSpec
		if err := decodeStrict(spec, &s); err != nil {
			return nil, fmt.Errorf("experiments: search spec: %w", err)
		}
		return SearchJob{Spec: s}, nil
	case "portfolio":
		var s PortfolioSpec
		if err := decodeStrict(spec, &s); err != nil {
			return nil, fmt.Errorf("experiments: portfolio spec: %w", err)
		}
		if s.Lanes > search.MaxLanes {
			return nil, fmt.Errorf("experiments: portfolio spec: lanes %d exceeds the maximum of %d", s.Lanes, search.MaxLanes)
		}
		return PortfolioJob{Spec: s}, nil
	}
	return nil, fmt.Errorf("experiments: unknown job kind %q (have sweep, search, portfolio)", kind)
}

// SpecJSON renders job's spec as JSON — what a server journals next to
// a job's content address so a restart can reconstruct and requeue the
// exact job (ParseJob(job.Kind(), SpecJSON(job)) round-trips).
func SpecJSON(job Job) (json.RawMessage, error) {
	raw, err := json.Marshal(job.spec())
	if err != nil {
		return nil, fmt.Errorf("experiments: encoding spec: %w", err)
	}
	return raw, nil
}

// decodeStrict unmarshals JSON rejecting unknown fields.
func decodeStrict(raw json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// DecodeOutcome parses a stored or streamed outcome by job kind — the
// inverse of Outcome.WriteJSON for run-store and server payloads.
func DecodeOutcome(kind string, data []byte) (Outcome, error) {
	switch kind {
	case "sweep":
		return ReadSweepJSON(bytes.NewReader(data))
	case "search", "portfolio":
		// Portfolio outcomes are SearchOutcomes with the lane fields set.
		return ReadSearchJSON(bytes.NewReader(data))
	}
	return nil, fmt.Errorf("experiments: unknown outcome kind %q", kind)
}

// fingerprint is everything that determines a job's result. Parallel and
// Workers are deliberately absent: runs are bit-identical under any
// fan-out, so they must share a content address. Schema is the artefact
// schema version — bumping it invalidates stored runs instead of serving
// them in an old shape.
type fingerprint struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	Spec   any    `json:"spec"`

	Seed             int64          `json:"seed"`
	YieldTrials      int            `json:"yield_trials"`
	FreqLocalTrials  int            `json:"freq_local_trials"`
	RandomBusSamples int            `json:"random_bus_samples"`
	MaxBuses         int            `json:"max_buses"`
	Mapper           mapper.Options `json:"mapper"`
}

// JobKey returns the content address of job under opt: the canonical
// hash of its normalised spec plus every result-affecting option. Two
// invocations describing the same work — whatever their spelling, field
// order or worker count — return the same key.
func JobKey(job Job, opt Options) (string, error) {
	job = job.Normalize(opt)
	return runstore.HashJSON(fingerprint{
		Schema:           SchemaVersion,
		Kind:             job.Kind(),
		Spec:             job.spec(),
		Seed:             opt.Seed,
		YieldTrials:      opt.YieldTrials,
		FreqLocalTrials:  opt.FreqLocalTrials,
		RandomBusSamples: opt.RandomBusSamples,
		MaxBuses:         opt.MaxBuses,
		Mapper:           opt.Mapper,
	})
}
