// Command capibench is the repository benchmark: it runs one named workload
// through the public API of capi, capi/middleware and internal/ctl, checks
// the outputs, and prints one JSON result line.
//
//	capibench -workload lulesh-trace -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced run. With
// -trace 1 it measures the same workload once untraced and once with spans
// recorded around every call into a layer, and reports the per-layer
// metrics and the tracing overhead. Every workload reports the same set of
// metrics (endToEnd or perLayer) on the result line. The other figures go
// to the line before it, under "extra_metrics": those only some workloads
// have (adjustment and HTTP latencies, the selection, reconfigure, report,
// adapt, serving and control-plane layers, and on lulesh-trace the share of
// the phase time the layer costs leave unexplained), and on a traced run
// error_rate and event_loss_ratio, which read 0 in a sound run. Spans are written to
// <out>/spans-<workload>-<seed>.json when the run ends. NOTES.md lists the
// workloads, metrics and recorded baseline defects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer are the metrics BENCHMARK.json names. The result
// line of an untraced run holds exactly the first set, that of a traced run
// exactly the second, on every workload; manifest_test.go keeps them in
// step with BENCHMARK.json.
var (
	endToEnd = []string{
		"setup_s", "op_ms_p50", "op_ms_p90", "events_per_s",
		"delivered_ratio", "success_ratio", "rss_mb",
	}
	perLayer = []string{
		"workload.generate_ms", "metacg.build_ms", "callgraph.nodes", "compiler.compile_ms",
		"obj.load_ms", "dyncapi.start_ms", "xray.patched_sleds", "xray.mprotect_windows",
		"xray.dispatch_ns.nohandler", "xray.dispatch_ns.noop",
		"dyncapi.dispatch_ns.none", "dyncapi.dispatch_ns.sampled", "dyncapi.dispatch_ns.mux1",
		"dyncapi.dispatch_ns.talp", "dyncapi.dispatch_ns.scorep", "dyncapi.dispatch_ns.extrae",
		"dyncapi.dispatch_ns.talp_extrae",
		"pipeline.append_ns", "pipeline.replay_ns", "pipeline.async_ns_per_delivered", "pipeline.delivered_ratio",
		"tracing.overhead_ratio",
	}
)

// run carries one invocation's settings and accumulators.
type run struct {
	seconds float64
	traced  bool
	// reported holds the metrics of the result line; the others a workload
	// sets go to the extra_metrics line.
	reported map[string]bool
	rng      *rand.Rand
	led      *ledger
	tr       *tracer // nil outside the traced pass
	metrics  map[string]metric
	// started bounds every measuring loop: the command must end well within
	// its time limit even when a minimum sample count is not reached.
	started time.Time
}

// hardLimit is how long measuring may go on, from process start, before a
// loop stops short of its minimum sample count and fails the run.
const hardLimit = 140 * time.Second

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setTail reports the p-th percentile of s. A series too short for it under
// the percentile rule fails the run when the metric is on the result line,
// and is left out of the extra_metrics line otherwise.
func (r *run) setTail(name string, s samples, p float64, unit string) {
	v, err := s.tail(p)
	fmt.Fprintf(os.Stderr, "capibench: %s from %d samples (median %.4g)\n", name, len(s), s.median())
	switch {
	case err == nil:
		r.set(name, v, unit)
	case r.reported[name]:
		r.led.op(fmt.Errorf("%s: %w", name, err))
	default:
		fmt.Fprintf(os.Stderr, "capibench: %s left out: %v\n", name, err)
	}
}

// measuring reports whether a loop that has taken n samples should go on:
// until d has passed and at least minN samples were taken, or the hard
// limit is reached.
func (r *run) measuring(start time.Time, d time.Duration, n, minN int) bool {
	if time.Since(r.started) > hardLimit {
		return false
	}
	return time.Since(start) < d || n < minN
}

// workload runs one named workload. It reports end-to-end metrics on an
// untraced run and per-layer metrics on a traced one.
type workload func(r *run) error

var workloads = map[string]workload{
	"lulesh-trace":    luleshTrace,
	"lulesh-adapt":    luleshAdapt,
	"openfoam-refine": openfoamRefine,
	"http-serve":      httpServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: lulesh-trace, lulesh-adapt, openfoam-refine or http-serve")
		seed    = flag.Int64("seed", 1, "workload seed: route mix, spec cycle order, control-plane schedule")
		seconds = flag.Float64("seconds", 10, "measuring time in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for the span file of a traced run")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "capibench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	reported := endToEnd
	if *trace == 1 {
		reported = perLayer
	}
	r := &run{
		seconds:  *seconds,
		traced:   *trace == 1,
		reported: map[string]bool{},
		rng:      rand.New(rand.NewSource(*seed)),
		led:      &ledger{},
		metrics:  map[string]metric{},
		started:  time.Now(),
	}
	for _, n := range reported {
		r.reported[n] = true
	}
	rss := startRSS()
	if err := wl(r); err != nil {
		r.led.op(err)
	}
	if r.traced {
		r.set("error_rate", r.led.errorRate(), "ratio")
		r.set("event_loss_ratio", r.led.lossRatio(), "ratio")
		printSelfTimes(r.tr.snapshot())
		if err := os.MkdirAll(*out, 0o755); err == nil {
			path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
			if err := r.tr.write(path); err != nil {
				r.led.op(fmt.Errorf("writing spans: %w", err))
			}
		}
	} else {
		r.set("success_ratio", 1-r.led.errorRate(), "ratio")
		r.set("delivered_ratio", 1-r.led.lossRatio(), "ratio")
		r.set("rss_mb", rss.stop(), "MB")
	}
	r.led.reportErrors()
	res := result{
		Correct:   r.led.failed == 0,
		Attempted: r.led.attempted,
		Failed:    r.led.failed,
		Metrics:   map[string]metric{},
	}
	extra := map[string]metric{}
	for k, m := range r.metrics {
		switch {
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			fmt.Fprintf(os.Stderr, "capibench: metric %s is not a number\n", k)
			res.Correct = false
		case r.reported[k]:
			res.Metrics[k] = m
		default:
			extra[k] = m
		}
	}
	for _, n := range reported {
		if _, ok := res.Metrics[n]; !ok {
			fmt.Fprintf(os.Stderr, "capibench: %s: no value for %s\n", *name, n)
			res.Correct = false
		}
	}
	if len(extra) > 0 {
		printJSON(map[string]map[string]metric{"extra_metrics": extra})
	}
	printJSON(res)
	if !res.Correct || res.Attempted == 0 {
		os.Exit(1)
	}
}

// printJSON writes v to standard output as one line.
func printJSON(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capibench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printSelfTimes writes each span name's summed self time to standard
// error, largest first.
func printSelfTimes(spans []span) {
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(os.Stderr, "%-36s %12s\n", "span", "self ms")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-36s %12.3f\n", n, self[n])
	}
}

// rssEvery is how often the resident set is sampled.
const rssEvery = 50 * time.Millisecond

// rssSampler reads the process's resident set size every rssEvery from
// start to stop. Its median over the run is steadier than the high-water
// mark, which hinges on where the last garbage collections fell.
type rssSampler struct {
	mb   samples
	quit chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, err := rssMB(); err == nil {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the median resident set in MB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	<-s.done
	return s.mb.median()
}

// rssMB reads the process's current resident set size.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("statm: %q", data)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// Set-up is repeated at least minSetups times, and more while the builds
// so far took under setupBudget, up to maxSetups: a cheap set-up is timed
// often enough for its median to settle.
const (
	minSetups   = 3
	maxSetups   = 1000
	setupBudget = 3 * time.Second
)

// repeatSetup runs build repeatedly and returns the median wall time in
// seconds and the last value built; earlier values are released (and
// collected) before the next build, so each set-up starts from the same
// heap.
func repeatSetup[T any](build func() (T, error), release func(T)) (float64, T, error) {
	var (
		times samples
		last  T
	)
	for len(times) < minSetups || (times.sum() < setupBudget.Seconds() && len(times) < maxSetups) {
		if len(times) > 0 {
			release(last)
			var zero T
			last = zero // unreachable before the next build starts
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return 0, last, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	fmt.Fprintf(os.Stderr, "capibench: setup_s from %d set-ups (min %.4g, max %.4g)\n", len(times), slices.Min(times), slices.Max(times))
	return times.median(), last, nil
}
