package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"capi"
	"capi/internal/experiments"
)

// ranks is the simulated MPI world size of every HPC workload: at most the
// reference host's 2 vCPUs, so rank goroutines do not queue for a core.
const ranks = 2

// minOps is the least number of phases or adjustments a timing series
// holds, so its p90 has 10 samples beyond it.
const minOps = 100

// warmup is how long a workload runs its operations, checked but untimed,
// between set-up and measuring: the first second's phases ran about a
// quarter slower than the rest.
const warmup = time.Second

// hpcApp is one prepared HPC session with its live instance.
type hpcApp struct {
	sess *capi.Session
	inst *capi.Instance
}

func (a *hpcApp) close() { a.inst.Close() }

// startApp generates the program, prepares the session, selects the initial
// specification (none: patch every sled) and starts the instance — the whole
// set-up a user pays before the first phase.
func startApp(gen func() *capi.Program, optLevel int, spec string, opts capi.RunOptions) (*hpcApp, error) {
	sess, err := capi.NewSession(gen(), capi.SessionOptions{OptLevel: optLevel})
	if err != nil {
		return nil, err
	}
	var sel *capi.Selection
	if spec != "" {
		src, err := experiments.SpecSource(spec)
		if err != nil {
			return nil, err
		}
		if sel, err = sess.Select(src); err != nil {
			return nil, err
		}
	}
	inst, err := sess.Start(sel, opts)
	if err != nil {
		return nil, err
	}
	return &hpcApp{sess: sess, inst: inst}, nil
}

func genLulesh() *capi.Program { return capi.Lulesh(capi.LuleshOptions{}) }

// openfoamOptions sizes the OpenFOAM stand-in: about 123k call-graph nodes,
// large enough that selection and re-patching dominate an adjustment.
var openfoamOptions = capi.OpenFOAMOptions{Scale: 0.3, Timesteps: 2}

func genOpenFOAM() *capi.Program { return capi.OpenFOAM(openfoamOptions) }

// phaseOutcome is what one checked phase delivered, in enter units except
// events, which counts delivered enter and exit events.
type phaseOutcome struct {
	enters, lost, events int64
}

// phaseSeries is a run of phases on one instance.
type phaseSeries struct {
	ms          samples // wall time per Instance.Run
	events      int64   // delivered events over all phases
	seconds     float64 // summed phase wall time
	perPhase    []int64 // dispatched events per phase
	reconfigsAt []int   // live re-selections applied when each phase ended
}

// counters is the instance's cumulative drop accounting, read between
// phases so a phase's share is a difference.
type counters struct {
	droppedAsync, droppedPanicked, inFlight, unpatched int64
	sampledOut, suppressed, collapsed                  int64
}

func readCounters(inst *capi.Instance) counters {
	st := inst.Status()
	c := counters{droppedAsync: st.DroppedAsync, droppedPanicked: st.DroppedPanicked,
		inFlight: st.DroppedInFlight, unpatched: st.DroppedUnpatched}
	if st.Sampling != nil {
		c.sampledOut = st.Sampling.Counters.SampledEvents
		c.suppressed = st.Sampling.Counters.SuppressedPairs
		c.collapsed = st.Sampling.Counters.CollapsedCalls
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		droppedAsync: c.droppedAsync - o.droppedAsync, droppedPanicked: c.droppedPanicked - o.droppedPanicked,
		inFlight: c.inFlight - o.inFlight, unpatched: c.unpatched - o.unpatched,
		sampledOut: c.sampledOut - o.sampledOut, suppressed: c.suppressed - o.suppressed, collapsed: c.collapsed - o.collapsed,
	}
}

// phaseCheck validates one phase's result against the drop counters the
// phase moved, and returns what it delivered.
type phaseCheck func(res *capi.RunResult, d counters) (phaseOutcome, error)

// runPhase executes and checks one phase, recording it in the ledger. With
// a tracer the phase is a root span, and after may add child spans (report
// scrapes) to it.
func (r *run) runPhase(app *hpcApp, check phaseCheck, ps *phaseSeries, after func(group, parent int)) {
	group := r.tr.nextGroup()
	root := r.tr.begin("phase", group, 0)
	before := readCounters(app.inst)
	call := r.tr.begin("capi.Instance.Run", group, root)
	start := time.Now()
	res, err := app.inst.Run()
	elapsed := time.Since(start)
	r.tr.end(call)
	if err == nil && after != nil {
		after(group, root)
	}
	r.tr.end(root)
	if err != nil {
		r.led.op(fmt.Errorf("phase %d: %w", len(ps.ms)+1, err))
		return
	}
	out, err := check(res, readCounters(app.inst).minus(before))
	if err == nil && len(ps.perPhase) > 0 && res.Reconfigs == ps.reconfigsAt[len(ps.reconfigsAt)-1] &&
		res.Events != ps.perPhase[len(ps.perPhase)-1] {
		err = fmt.Errorf("events per phase changed under the same selection: %d then %d", ps.perPhase[len(ps.perPhase)-1], res.Events)
	}
	r.led.op(err)
	r.led.events(out.enters, out.lost)
	ps.ms = append(ps.ms, float64(elapsed.Nanoseconds())/1e6)
	ps.events += out.events
	ps.seconds += elapsed.Seconds()
	ps.perPhase = append(ps.perPhase, res.Events)
	ps.reconfigsAt = append(ps.reconfigsAt, res.Reconfigs)
}

// phases runs back-to-back phases for d (and at least minN of them).
func (r *run) phases(app *hpcApp, d time.Duration, minN int, check phaseCheck, after func(group, parent int)) *phaseSeries {
	ps := &phaseSeries{}
	for start := time.Now(); r.measuring(start, d, len(ps.ms), minN); {
		r.runPhase(app, check, ps, after)
	}
	return ps
}

// reportPhases sets the phase metrics of an untraced run: wall time per
// phase as <prefix>_p50 and _p90 (op_ms when the phase is the workload's
// operation), and delivered events per second of phase time.
func (r *run) reportPhases(ps *phaseSeries, prefix string) {
	r.set(prefix+"_p50", ps.ms.median(), "ms")
	r.setTail(prefix+"_p90", ps.ms, 90, "ms")
	r.set("events_per_s", float64(ps.events)/ps.seconds, "1/s")
}

// measureHalf is the measuring time of each pass of a traced run: an
// untraced pass and a traced pass share the run's seconds.
func (r *run) measureHalf() time.Duration {
	return time.Duration(r.seconds / 2 * float64(time.Second))
}

func (r *run) measureAll() time.Duration {
	return time.Duration(r.seconds * float64(time.Second))
}

// traceReportOf returns the extrae backend's report of a phase.
func traceReportOf(res *capi.RunResult) (*capi.TraceReport, error) {
	rep, ok := res.Reports["extrae"].(capi.JSONReport)
	if !ok {
		return nil, fmt.Errorf("no extrae report")
	}
	tr, ok := rep.Value.(*capi.TraceReport)
	if !ok {
		return nil, fmt.Errorf("extrae report has type %T", rep.Value)
	}
	return tr, nil
}

// checkTraceBalance checks that every function's enters and exits in the
// retained trace pair up.
func checkTraceBalance(tr *capi.TraceReport) error {
	for _, fc := range tr.ByFunc {
		if fc.Enters != fc.Exits {
			return fmt.Errorf("extrae: %s has %d enters and %d exits", fc.Name, fc.Enters, fc.Exits)
		}
	}
	return nil
}

// enterUnits converts a phase's dispatched events to enters: with the
// selection fixed for the whole phase every enter has its exit.
func enterUnits(res *capi.RunResult) (int64, error) {
	if res.Events <= 0 || res.Events%2 != 0 {
		return 0, fmt.Errorf("phase dispatched %d events, want a positive even count", res.Events)
	}
	return res.Events / 2, nil
}

// checkLuleshTrace checks a talp+extrae phase: the identity against the
// extrae trace (talp filters regions by MPI state by design, so its
// delivered count is not an enter count), per-function balance in the
// trace, and a talp report.
func checkLuleshTrace(res *capi.RunResult, d counters) (phaseOutcome, error) {
	enters, err := enterUnits(res)
	if err != nil {
		return phaseOutcome{}, err
	}
	tr, err := traceReportOf(res)
	if err != nil {
		return phaseOutcome{}, err
	}
	var delivered int64
	for _, rk := range tr.Ranks {
		delivered += rk.Enters
	}
	c := conservation{Enters: enters, Delivered: delivered, SampledOut: d.sampledOut, Suppressed: d.suppressed,
		Collapsed: d.collapsed, DroppedAsync: d.droppedAsync, DroppedPanicked: d.droppedPanicked}
	out := phaseOutcome{enters: enters, lost: c.lost(), events: tr.Recorded}
	if err := c.check(); err != nil {
		return out, err
	}
	if tr.Dropped != 0 || tr.Wrapped != 0 {
		return out, fmt.Errorf("extrae: %d dropped and %d wrapped events with unbounded retention", tr.Dropped, tr.Wrapped)
	}
	if err := checkTraceBalance(tr); err != nil {
		return out, err
	}
	if _, ok := res.Reports["talp"]; !ok {
		return out, fmt.Errorf("no talp report")
	}
	return out, nil
}

// luleshTrace is the dispatch-heavy HPC run: every sled patched, inline
// talp+extrae fan-out, back-to-back phases, no selection work.
func luleshTrace(r *run) error {
	opts := capi.RunOptions{PatchAll: true, Backends: []string{"talp", "extrae"}, Ranks: ranks}
	setup, app, err := repeatSetup(func() (*hpcApp, error) { return startApp(genLulesh, 3, "", opts) }, (*hpcApp).close)
	if err != nil {
		return err
	}
	defer app.close()
	r.phases(app, warmup, 0, checkLuleshTrace, nil)
	if !r.traced {
		r.set("setup_s", setup, "s")
		r.reportPhases(r.phases(app, r.measureAll(), minOps, checkLuleshTrace, nil), "op_ms")
		return nil
	}
	// The ranks run in parallel, so a phase's dispatch cost lies on the
	// critical path of its busiest rank: its events per phase.
	var busiest samples
	plain := r.phases(app, r.measureHalf(), minOps/2, func(res *capi.RunResult, d counters) (phaseOutcome, error) {
		out, err := checkLuleshTrace(res, d)
		if tr, terr := traceReportOf(res); terr == nil {
			most := int64(0)
			for _, rk := range tr.Ranks {
				most = max(most, rk.Recorded)
			}
			busiest = append(busiest, float64(most))
		}
		return out, err
	}, nil)
	r.tr = newTracer()
	var recorded, flushes samples
	traced := r.phases(app, r.measureHalf(), minOps/2, checkLuleshTrace, func(group, parent int) {
		s := r.tr.begin("talp.Report", group, parent)
		app.inst.TALPReport()
		r.tr.end(s)
		s = r.tr.begin("trace.Report", group, parent)
		tr := app.inst.TraceReport()
		r.tr.end(s)
		if tr != nil {
			var n int64
			for _, rk := range tr.Ranks {
				n += rk.Flushes
			}
			recorded = append(recorded, float64(tr.Recorded))
			flushes = append(flushes, float64(n))
		}
	})
	r.set("tracing.overhead_ratio", traced.ms.median()/plain.ms.median()-1, "ratio")
	spans := r.tr.snapshot()
	talpMs, traceMs := durations(spans, "talp.Report").median(), durations(spans, "trace.Report").median()
	r.set("talp.report_ms", talpMs, "ms")
	r.set("trace.report_ms", traceMs, "ms")
	r.set("trace.recorded_events", recorded.median(), "count")
	r.set("trace.flushes", flushes.median(), "count")

	inactive, err := r.engineLayers(app.sess, plain.ms.median())
	if err != nil {
		return err
	}
	if err := r.setupLayers(genLulesh, 3, ""); err != nil {
		return err
	}
	ladder, err := r.dispatchLadder()
	if err != nil {
		return err
	}
	// The layer costs should add up to the phase: dispatch of the busiest
	// rank's events through the talp+extrae fan-out (the ladder is timed on
	// one rank), the two end-of-phase reports and the engine's own
	// uninstrumented phase.
	if len(busiest) == 0 {
		return fmt.Errorf("no phase completed")
	}
	phaseMs := plain.ms.median()
	explained := ladder["dyncapi.dispatch_ns.talp_extrae"]*busiest.median()/1e6 + talpMs + traceMs + inactive
	r.set("phase.unexplained_share", (phaseMs-explained)/phaseMs, "ratio")
	return nil
}

// engineLayers measures the same build with its sleds left unpatched and
// reports the inactive phase time and the instrumented share of phaseMs.
// It returns the inactive phase median in ms.
func (r *run) engineLayers(sess *capi.Session, phaseMs float64) (float64, error) {
	inst, err := sess.Start(nil, capi.RunOptions{Ranks: ranks})
	if err != nil {
		return 0, err
	}
	defer inst.Close()
	var ms samples
	for start := time.Now(); len(ms) < minOps/2 && time.Since(start) < r.measureHalf(); {
		group := r.tr.nextGroup()
		s := r.tr.begin("exec.inactive_phase", group, 0)
		t := time.Now()
		res, err := inst.Run()
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
		r.tr.end(s)
		if err == nil && res.Events != 0 {
			err = fmt.Errorf("inactive phase dispatched %d events", res.Events)
		}
		r.led.op(err)
	}
	inactive := ms.median()
	r.set("exec.inactive_phase_ms", inactive, "ms")
	r.set("exec.instrumented_share", (phaseMs-inactive)/phaseMs, "ratio")
	return inactive, nil
}

// checkScoreP checks a scorep phase: the identity against the profile's
// visit counts, exactly when the selection and sampling table stayed fixed
// for the whole phase (a mid-phase controller step splits enters from
// their exits, and the engine counts both together).
func checkScoreP(fixed func(res *capi.RunResult) bool) phaseCheck {
	return func(res *capi.RunResult, d counters) (phaseOutcome, error) {
		rep, ok := res.Reports["scorep"].(capi.JSONReport)
		if !ok {
			return phaseOutcome{}, fmt.Errorf("no scorep report")
		}
		prof, ok := rep.Value.(*capi.Profile)
		if !ok {
			return phaseOutcome{}, fmt.Errorf("scorep report has type %T", rep.Value)
		}
		var visits int64
		for _, reg := range prof.Regions {
			visits += reg.Visits
		}
		out := phaseOutcome{enters: res.Events / 2, lost: d.droppedAsync + d.droppedPanicked, events: 2 * visits}
		if !fixed(res) {
			return out, nil
		}
		enters, err := enterUnits(res)
		if err != nil {
			return out, err
		}
		c := conservation{Enters: enters, Delivered: visits, SampledOut: d.sampledOut, Suppressed: d.suppressed,
			Collapsed: d.collapsed, DroppedAsync: d.droppedAsync, DroppedPanicked: d.droppedPanicked}
		return out, c.check()
	}
}

// adaptLifetime is how many phases one adaptive instance runs before it is
// closed and a fresh one started on the same session. The controller keeps
// every epoch it evaluated for the instance's lifetime and copies the whole
// history into each phase's result, so phase time and memory grow with the
// phases run (see NOTES.md); a fixed lifetime keeps each run's phases at the
// same points of that growth, whatever the host's speed, and bounds the
// memory a run needs.
const adaptLifetime = 50

// adaptRun is lulesh-adapt's state across instance lifetimes.
type adaptRun struct {
	app                       *hpcApp
	opts                      capi.RunOptions
	pos                       int // phases the current instance has run
	lastReconfigs, lastEpochs int
	reconfigs                 int     // over all lifetimes
	checked                   int     // phases whose conservation identity was checked
	epochsPerPhase            samples // controller epochs evaluated per phase
	retained                  int     // epochs held at the end of the longest lifetime
	first, last               samples // phase ms in the first and last tenth of a lifetime
}

// phases runs adaptive phases for d (and at least minN of them), starting
// a fresh instance every adaptLifetime phases.
func (ar *adaptRun) phases(r *run, d time.Duration, minN int, after func(group, parent int)) (*phaseSeries, error) {
	check := checkScoreP(func(res *capi.RunResult) bool {
		// The selection and sampling table were fixed for the phase when
		// none of its own epochs changed them. The demotion ladder lasts
		// across phases; under a fixed table the sampled-out counts account
		// for the demoted functions' rate.
		fixed := res.Reconfigs == ar.lastReconfigs
		for _, ep := range res.AdaptEpochs[ar.lastEpochs:] {
			if ep.Reconfigured || len(ep.Demoted)+len(ep.Promoted)+len(ep.Dropped)+len(ep.Readded) > 0 {
				fixed = false
			}
		}
		if fixed {
			ar.checked++
		}
		ar.reconfigs += res.Reconfigs - ar.lastReconfigs
		ar.lastReconfigs = res.Reconfigs
		ar.epochsPerPhase = append(ar.epochsPerPhase, float64(len(res.AdaptEpochs)-ar.lastEpochs))
		ar.lastEpochs = len(res.AdaptEpochs)
		ar.retained = max(ar.retained, ar.lastEpochs)
		return fixed
	})
	ps := &phaseSeries{}
	from := ar.checked
	defer func() {
		n := ar.checked - from
		fmt.Fprintf(os.Stderr, "capibench: conservation checked on %d of %d adaptive phases\n", n, len(ps.ms))
		if n == 0 {
			r.led.op(fmt.Errorf("no adaptive phase ran under a fixed selection: conservation never checked"))
		}
	}()
	// Only whole lifetimes are measured, so every run holds the same mix of
	// early and late phases whatever the host's speed.
	for start := time.Now(); (r.measuring(start, d, len(ps.ms), minN) || ar.pos%adaptLifetime != 0) &&
		time.Since(r.started) < hardLimit; {
		if ar.pos == adaptLifetime {
			ar.app.inst.Close()
			inst, err := ar.app.sess.Start(nil, ar.opts)
			if err != nil {
				return ps, err
			}
			ar.app.inst, ar.pos, ar.lastReconfigs, ar.lastEpochs = inst, 0, 0, 0
		}
		n := len(ps.ms)
		r.runPhase(ar.app, check, ps, after)
		if len(ps.ms) > n {
			switch ms := ps.ms[n]; {
			case ar.pos < adaptLifetime/10:
				ar.first = append(ar.first, ms)
			case ar.pos >= adaptLifetime-adaptLifetime/10:
				ar.last = append(ar.last, ms)
			}
		}
		ar.pos++
	}
	return ps, nil
}

// luleshAdapt is the same program and phases under inline scorep behind the
// overhead-budget controller at its default 1% budget.
func luleshAdapt(r *run) error {
	opts := capi.RunOptions{PatchAll: true, Backends: []string{"scorep"}, Ranks: ranks, Adapt: &capi.AdaptOptions{}}
	setup, app, err := repeatSetup(func() (*hpcApp, error) { return startApp(genLulesh, 3, "", opts) }, (*hpcApp).close)
	if err != nil {
		return err
	}
	defer func() { app.close() }()
	ar := &adaptRun{app: app, opts: opts}
	if !r.traced {
		r.set("setup_s", setup, "s")
		ps, err := ar.phases(r, r.measureAll(), minOps, nil)
		r.reportPhases(ps, "op_ms")
		return err
	}
	plain, err := ar.phases(r, r.measureHalf(), minOps/2, nil)
	if err != nil {
		return err
	}
	r.tr = newTracer()
	traced, err := ar.phases(r, r.measureHalf(), minOps/2, func(group, parent int) {
		s := r.tr.begin("scorep.Report", group, parent)
		app.inst.Profile()
		r.tr.end(s)
	})
	if err != nil {
		return err
	}
	r.set("tracing.overhead_ratio", traced.ms.median()/plain.ms.median()-1, "ratio")
	r.set("scorep.report_ms", durations(r.tr.snapshot(), "scorep.Report").median(), "ms")
	r.set("adapt.phase_growth", ar.last.median()/ar.first.median(), "ratio")
	r.set("adapt.epochs_per_phase", ar.epochsPerPhase.median(), "count")
	r.set("adapt.epochs_retained", float64(ar.retained), "count")
	r.set("adapt.reconfigs", float64(ar.reconfigs), "count")

	// The controller's cost: the same phases under scorep alone.
	base, err := startApp(genLulesh, 3, "", capi.RunOptions{PatchAll: true, Backends: []string{"scorep"}, Ranks: ranks})
	if err != nil {
		return err
	}
	defer base.close()
	alone := &phaseSeries{}
	for len(alone.ms) < adaptLifetime && time.Since(r.started) < hardLimit {
		r.runPhase(base, checkScoreP(func(*capi.RunResult) bool { return true }), alone, nil)
	}
	r.set("adapt.overhead_ms_per_phase", plain.ms.median()-alone.ms.median(), "ms")

	if _, err := r.engineLayers(app.sess, plain.ms.median()); err != nil {
		return err
	}
	if err := r.setupLayers(genLulesh, 3, ""); err != nil {
		return err
	}
	_, err = r.dispatchLadder()
	return err
}

// checkTALPOnly checks an inline talp phase. TALP exposes no delivered
// count (it filters regions by MPI state by design), so the identity is
// checked in the terms the instance counts: no enter may be dropped on the
// way, and no sled may fire outside the selection while it is fixed.
func checkTALPOnly(res *capi.RunResult, d counters) (phaseOutcome, error) {
	enters, err := enterUnits(res)
	if err != nil {
		return phaseOutcome{}, err
	}
	out := phaseOutcome{enters: enters, lost: d.droppedAsync + d.droppedPanicked}
	out.events = 2 * (enters - out.lost)
	if _, ok := res.Reports["talp"]; !ok {
		return out, fmt.Errorf("no talp report")
	}
	if d.inFlight != 0 || d.unpatched != 0 || out.lost != 0 {
		return out, fmt.Errorf("phase dropped events: %d in flight, %d unpatched, %d lost", d.inFlight, d.unpatched, out.lost)
	}
	return out, nil
}

// openfoamRefine is the paper's Fig. 1 loop on OpenFOAM: select the next
// Table I specification, reconfigure the live instance, run one phase.
func openfoamRefine(r *run) error {
	// OpenFOAM's set-up takes seconds, so an untraced run times the fewest
	// set-ups repeatSetup allows; the traced run sets up once and breaks the
	// set-up into layers instead.
	start := func() (*hpcApp, error) {
		return startApp(genOpenFOAM, 2, "mpi", capi.RunOptions{Backends: []string{"talp"}, Ranks: ranks})
	}
	var app *hpcApp
	var err error
	if r.traced {
		app, err = start()
	} else {
		var setup float64
		setup, app, err = repeatSetup(start, (*hpcApp).close)
		r.set("setup_s", setup, "s")
	}
	if err != nil {
		return err
	}
	defer app.close()
	srcs := make([]string, len(experiments.SpecNames))
	for k, name := range experiments.SpecNames {
		if srcs[k], err = experiments.SpecSource(name); err != nil {
			return err
		}
	}
	lp := &refineLoop{app: app, srcs: srcs, rng: r.rng, active: map[int]int{}, events: map[int]int64{}, reconfMs: map[int]samples{}}
	r.refine(lp, warmup, 0)
	lp.phases, lp.adjust, lp.rounds = phaseSeries{}, nil, nil
	if !r.traced {
		r.refine(lp, r.measureAll(), minOps)
		r.set("op_ms_p50", lp.rounds.median(), "ms")
		r.setTail("op_ms_p90", lp.rounds, 90, "ms")
		r.reportPhases(&lp.phases, "phase_ms")
		r.set("adjust_ms_p50", lp.adjust.median(), "ms")
		r.setTail("adjust_ms_p90", lp.adjust, 90, "ms")
		return nil
	}
	r.refine(lp, r.measureHalf(), minOps/2)
	plain := append(samples(nil), lp.phases.ms...)
	lp.phases = phaseSeries{}
	r.tr = newTracer()
	r.refine(lp, r.measureHalf(), minOps/2)
	r.set("tracing.overhead_ratio", lp.phases.ms.median()/plain.median()-1, "ratio")
	spans := r.tr.snapshot()
	r.set("core.select_ms", durations(spans, "capi.Session.Select").median(), "ms")
	r.set("core.selected_funcs", lp.selected.median(), "count")
	r.set("dyncapi.reconfigure_ms", durations(spans, "capi.Instance.Reconfigure").median(), "ms")
	r.set("dyncapi.reconfigure_delta_funcs", lp.delta.median(), "count")
	r.set("dyncapi.reconfigure_ns_per_delta_func", lp.nsPerDelta.median(), "ns")
	r.set("xray.repatched_sleds", lp.sleds.median(), "count")
	r.set("dyncapi.synthetic_exits", float64(lp.synthetic), "count")
	deltas := make([]int, 0, len(lp.reconfMs))
	for d := range lp.reconfMs {
		deltas = append(deltas, d)
	}
	sort.Ints(deltas)
	fmt.Fprintf(os.Stderr, "%-12s %8s %14s\n", "delta funcs", "calls", "reconfigure ms")
	for _, d := range deltas {
		fmt.Fprintf(os.Stderr, "%-12d %8d %14.3f\n", d, len(lp.reconfMs[d]), lp.reconfMs[d].median())
	}
	if _, err := r.engineLayers(app.sess, plain.median()); err != nil {
		return err
	}
	if err := r.setupLayers(genOpenFOAM, 2, "mpi"); err != nil {
		return err
	}
	_, err = r.dispatchLadder()
	return err
}

// refineLoop is the state of the Fig. 1 loop across passes.
type refineLoop struct {
	app  *hpcApp
	srcs []string // by index into experiments.SpecNames
	// The specs are visited in rounds, each a fresh seeded permutation of
	// all four that does not start with the spec just applied (the
	// instance starts on "mpi", index 0). Every round re-patches a delta,
	// and over a run every pair of specs follows one another, so the
	// delta sizes a run sees do not hinge on one drawn order.
	rng    *rand.Rand
	round  []int
	last   int
	phases phaseSeries
	adjust samples // Select + Reconfigure, ms
	rounds samples // Select + Reconfigure + Run, ms
	// Per specification (index into srcs): the active-set size and events
	// per phase it produced the first time, which later phases must match.
	active map[int]int
	events map[int]int64
	// Reconfigure layer figures, over adjustments with a non-empty delta.
	selected, delta, nsPerDelta, sleds samples
	synthetic                          int64
	// reconfMs groups Reconfigure wall times (ms) by delta size.
	reconfMs map[int]samples
}

// nextSpec returns the index of the next spec to select.
func (lp *refineLoop) nextSpec() int {
	if len(lp.round) == 0 {
		lp.round = lp.rng.Perm(len(lp.srcs))
		if lp.round[0] == lp.last {
			k := 1 + lp.rng.Intn(len(lp.round)-1)
			lp.round[0], lp.round[k] = lp.round[k], lp.round[0]
		}
	}
	lp.last, lp.round = lp.round[0], lp.round[1:]
	return lp.last
}

// refine runs select → reconfigure → run iterations for d (and at least
// minN of them).
func (r *run) refine(lp *refineLoop, d time.Duration, minN int) {
	for start := time.Now(); r.measuring(start, d, len(lp.phases.ms), minN); {
		idx := lp.nextSpec()
		group := r.tr.nextGroup()
		root := r.tr.begin("adjustment", group, 0)
		t := time.Now()
		s := r.tr.begin("capi.Session.Select", group, root)
		sel, err := lp.app.sess.Select(lp.srcs[idx])
		r.tr.end(s)
		var rep capi.ReconfigReport
		var reconf time.Duration
		if err == nil {
			s = r.tr.begin("capi.Instance.Reconfigure", group, root)
			rt := time.Now()
			rep, err = lp.app.inst.Reconfigure(sel)
			reconf = time.Since(rt)
			r.tr.end(s)
		}
		elapsed := time.Since(t)
		r.tr.end(root)
		if err == nil {
			if want, seen := lp.active[idx]; seen && want != rep.Active {
				err = fmt.Errorf("spec %d: active set %d functions, earlier %d", idx, rep.Active, want)
			} else if got := lp.app.inst.ActiveFunctions(); got != rep.Active {
				err = fmt.Errorf("reconfigure reported %d active functions, instance has %d", rep.Active, got)
			}
			lp.active[idx] = rep.Active
		}
		r.led.op(err)
		if err != nil {
			continue
		}
		lp.adjust = append(lp.adjust, float64(elapsed.Nanoseconds())/1e6)
		lp.selected = append(lp.selected, float64(sel.Selected))
		if delta := rep.Patched + rep.Unpatched; delta > 0 {
			lp.delta = append(lp.delta, float64(delta))
			lp.nsPerDelta = append(lp.nsPerDelta, float64(reconf.Nanoseconds())/float64(delta))
			lp.sleds = append(lp.sleds, float64(rep.Batch.PatchedSleds+rep.Batch.UnpatchedSleds))
			lp.reconfMs[delta] = append(lp.reconfMs[delta], float64(reconf.Nanoseconds())/1e6)
		}
		lp.synthetic += int64(rep.SyntheticExits)

		n := len(lp.phases.ms)
		r.runPhase(lp.app, func(res *capi.RunResult, d counters) (phaseOutcome, error) {
			out, err := checkTALPOnly(res, d)
			if want, seen := lp.events[idx]; err == nil && seen && want != res.Events {
				err = fmt.Errorf("spec %d: %d events per phase, earlier %d", idx, res.Events, want)
			}
			lp.events[idx] = res.Events
			return out, err
		}, &lp.phases, nil)
		if len(lp.phases.ms) > n {
			lp.rounds = append(lp.rounds, lp.adjust[len(lp.adjust)-1]+lp.phases.ms[n])
		}
	}
}
