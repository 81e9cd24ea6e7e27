// Litmus testing (§VII-B) as a structured request: the engine behind
// `hglitmus` and the server's "litmus" jobs.

package engine

import (
	"context"
	"fmt"

	"heterogen/internal/core"
	"heterogen/internal/litmus"
	"heterogen/internal/spec"
)

// LitmusRequest describes one litmus run: a protocol pair (or every
// Table II pair when Pair is empty), or a single protocol validated
// homogeneously.
type LitmusRequest struct {
	// Pair selects one protocol pair; empty runs all Table II pairs.
	Pair []string `json:"pair,omitempty"`
	// Protocol validates a single protocol homogeneously instead.
	Protocol string `json:"protocol,omitempty"`
	// Spec is inline PCC source for a "-" protocol entry.
	Spec string `json:"spec,omitempty"`
	// Shapes restricts the run to the named shapes (nil = all 13).
	Shapes []string `json:"shapes,omitempty"`
	// Test is an inline litmus test in the text format; it overrides
	// Shapes with the parsed test's shape.
	Test string `json:"test,omitempty"`
	// MaxThreads skips shapes with more threads (0 = hglitmus's
	// default 3; IRIW=4 is expensive).
	MaxThreads int `json:"max_threads,omitempty"`
	// AllAllocations enumerates every thread→cluster assignment.
	AllAllocations bool `json:"all_allocations,omitempty"`
	// Evictions explores replacements at any time.
	Evictions bool `json:"evictions,omitempty"`
	// Search carries the shared search knobs.
	Search SearchOptions `json:"search,omitempty"`
}

// LitmusResult aggregates a litmus run the way the suite report does,
// with the cancellation flag lifted to the top.
type LitmusResult struct {
	// Results holds the per-test verdicts in deterministic suite order.
	Results []*litmus.Result `json:"results"`
	// Passed and Failed count the verdicts (a Cancelled test counts as
	// neither; it is reported via Cancelled).
	Passed int `json:"passed"`
	Failed int `json:"failed"`
	// Cancelled marks a partial run: the context fired before every
	// scheduled test completed.
	Cancelled bool `json:"cancelled,omitempty"`
}

// Verdict maps the result onto the error the CLI exits nonzero on.
func (r *LitmusResult) Verdict() error {
	if r.Failed > 0 {
		return fmt.Errorf("%d litmus failures", r.Failed)
	}
	if r.Cancelled {
		return fmt.Errorf("cancelled after %d of the scheduled tests", len(r.Results))
	}
	return nil
}

// options assembles the litmus options shared by both request shapes:
// every test's search runs under the request's search knobs and the
// run's hooks, exactly as a check would.
func (req *LitmusRequest) options(hooks Hooks) litmus.Options {
	return litmus.Options{
		Explore:        req.Search.mcheckOptions(hooks, req.Evictions),
		AllAllocations: req.AllAllocations,
	}
}

// shapes resolves the request's shape selection.
func (req *LitmusRequest) shapes() ([]litmus.Shape, error) {
	if req.Test != "" {
		pt, err := litmus.ParseTest(req.Test)
		if err != nil {
			return nil, err
		}
		return []litmus.Shape{pt.Shape()}, nil
	}
	var shapes []litmus.Shape
	for _, name := range req.Shapes {
		s, ok := litmus.ShapeByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown shape %q", name)
		}
		shapes = append(shapes, s)
	}
	return shapes, nil
}

// Validate rejects a negative max_threads, which would skip every shape
// of a homogeneous run and lift the bound of a pair run, and every search
// option SearchOptions.Validate rejects. Litmus calls it first; hgserve
// answers a failure with a 400.
func (req *LitmusRequest) Validate() error {
	if req.MaxThreads < 0 {
		return &OptionError{Field: "max_threads", Value: int64(req.MaxThreads)}
	}
	return req.Search.Validate()
}

// Litmus runs one litmus request to completion (or cancellation). Like
// Check, the error covers request problems only; test failures and
// cancellation land in the result.
func Litmus(ctx context.Context, req LitmusRequest, hooks Hooks) (*LitmusResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	maxThreads := req.MaxThreads
	if maxThreads == 0 {
		maxThreads = 3
	}
	shapes, err := req.shapes()
	if err != nil {
		return nil, err
	}
	opts := req.options(hooks)

	if req.Protocol != "" {
		p, err := resolveProtocol(req.Protocol, req.Spec)
		if err != nil {
			return nil, err
		}
		// Homogeneous tests run one at a time, each with the whole budget.
		opts.ExploreWorkers = req.Search.Workers
		sel := shapes
		if sel == nil {
			sel = litmus.Shapes()
		}
		out := &LitmusResult{}
		for _, shape := range sel {
			if len(shape.Prog().Threads) > maxThreads {
				continue
			}
			if ctx.Err() != nil {
				out.Cancelled = true
				break
			}
			r := litmus.RunHomogeneousCtx(ctx, p, shape, opts)
			out.Results = append(out.Results, r)
		}
		tally(out)
		return out, nil
	}

	var pairNames [][2]string
	if len(req.Pair) > 0 {
		if len(req.Pair) != 2 {
			return nil, fmt.Errorf("pair needs exactly two protocols, got %d", len(req.Pair))
		}
		pairNames = [][2]string{{req.Pair[0], req.Pair[1]}}
	} else {
		pairNames = core.TableIIPairs()
	}
	var protoPairs [][]*spec.Protocol
	for _, pr := range pairNames {
		a, err := resolveProtocol(pr[0], req.Spec)
		if err != nil {
			return nil, err
		}
		b, err := resolveProtocol(pr[1], req.Spec)
		if err != nil {
			return nil, err
		}
		protoPairs = append(protoPairs, []*spec.Protocol{a, b})
	}
	opts.MaxThreads = maxThreads
	opts.Shapes = shapes
	// RunSuiteCtx splits the budget between concurrent tests and each
	// test's search.
	opts.Workers = req.Search.Workers
	report, err := litmus.RunSuiteCtx(ctx, protoPairs, opts)
	if err != nil {
		return nil, err
	}
	out := &LitmusResult{Results: report.Results, Cancelled: report.Cancelled}
	tally(out)
	return out, nil
}

// tally fills the pass/fail counts, treating cancelled tests as neither
// and lifting any mid-test cancellation to the run flag.
func tally(r *LitmusResult) {
	for _, res := range r.Results {
		switch {
		case res.Cancelled:
			r.Cancelled = true
		case res.Pass():
			r.Passed++
		default:
			r.Failed++
		}
	}
}
