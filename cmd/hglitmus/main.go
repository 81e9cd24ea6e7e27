// Command hglitmus runs heterogeneous litmus testing (§VII-B): the classic
// shapes, translated per cluster model, over thread→cluster allocations,
// validated exhaustively against the compound consistency model. The
// report mirrors the artifact's Test_Result.txt. Independent tests are
// spread over a worker pool (-workers); each line reports the test's
// wall-clock time. Like hgcheck, it is a thin front end over the engine
// layer — the same requests the hgserve daemon runs.
//
// Usage:
//
//	hglitmus                         # all Table II pairs, all shapes
//	hglitmus -pair MESI,RCC-O        # one pair
//	hglitmus -shape MP,SB            # selected shapes
//	hglitmus -all-allocs -evict      # every allocation, with replacements
//	hglitmus -workers 1              # sequential (deterministic timing)
//	hglitmus -timeout 2m             # stop after 2m, report completed tests
//
// ^C (or -timeout) cancels the run cooperatively: completed verdicts
// print, the summary notes the cancellation, and the command exits
// nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"heterogen/internal/cliopts"
	"heterogen/internal/engine"
	"heterogen/internal/litmus"
	"heterogen/internal/memmodel"
)

func main() {
	pairFlag := flag.String("pair", "", "protocol pair A,B (default: all Table II pairs)")
	protoFlag := flag.String("protocol", "", "validate a single protocol homogeneously")
	shapeFlag := flag.String("shape", "", "comma-separated shapes (default: all 13)")
	fileFlag := flag.String("file", "", "run a litmus test from a text file")
	allAllocs := flag.Bool("all-allocs", false, "every thread→cluster allocation (default: heterogeneous only)")
	evict := flag.Bool("evict", false, "explore replacements at any time")
	maxThreads := flag.Int("max-threads", 3, "skip shapes with more threads (IRIW=4 is expensive)")
	verdicts := flag.Bool("verdicts", false, "print the axiomatic forbidden/allowed matrix and exit")
	var search cliopts.Search
	search.Register(flag.CommandLine)
	flag.Parse()

	if *verdicts {
		vs, err := litmus.VerdictMatrix(memmodel.AllIDs())
		if err != nil {
			fmt.Fprintln(os.Stderr, "hglitmus:", err)
			os.Exit(1)
		}
		fmt.Print(litmus.FormatVerdicts(vs))
		return
	}
	req := engine.LitmusRequest{
		Protocol:       *protoFlag,
		MaxThreads:     *maxThreads,
		AllAllocations: *allAllocs,
		Evictions:      *evict,
		Search:         search.SearchOptions,
	}
	if *pairFlag != "" {
		parts := strings.Split(*pairFlag, ",")
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "hglitmus: -pair needs exactly two protocols")
			os.Exit(1)
		}
		req.Pair = parts
	}
	if *shapeFlag != "" {
		req.Shapes = strings.Split(*shapeFlag, ",")
	}
	if *fileFlag != "" {
		src, err := os.ReadFile(*fileFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hglitmus:", err)
			os.Exit(1)
		}
		req.Test = string(src)
	}

	stopProf, err := search.StartProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hglitmus:", err)
		os.Exit(1)
	}
	ctx, stop := search.Context()
	runErr := run(ctx, req)
	stop()
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "hglitmus:", err)
		if runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "hglitmus:", runErr)
		os.Exit(1)
	}
}

func run(ctx context.Context, req engine.LitmusRequest) error {
	res, err := engine.Litmus(ctx, req, engine.Hooks{})
	if err != nil {
		return err
	}
	for _, r := range res.Results {
		fmt.Printf("%s %8.1fms\n", r, float64(r.Elapsed.Microseconds())/1000)
	}
	if req.Protocol != "" {
		// The homogeneous path keeps its terser historical summary.
		if res.Verdict() == nil {
			return nil
		}
		if res.Failed > 0 {
			return fmt.Errorf("%d homogeneous litmus failures", res.Failed)
		}
		return res.Verdict()
	}
	fmt.Printf("litmus: %d tests, %d passed, %d failed\n",
		len(res.Results), res.Passed, res.Failed)
	return res.Verdict()
}
