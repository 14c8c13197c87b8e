package main

import (
	"fmt"
	"os"
	"time"

	"capi"
	"capi/internal/compiler"
	"capi/internal/core"
	"capi/internal/dyncapi"
	"capi/internal/experiments"
	"capi/internal/ic"
	"capi/internal/metacg"
	"capi/internal/spec"
	"capi/internal/xray"
)

// setupLayers repeats the workload's set-up one layer at a time, through
// the exported functions capi.NewSession and Session.Start call, and
// reports each layer's time. specName "" patches every sled. The runtime is
// started over the discarding cyg-profile backend: the layer measured is
// resolution and patching, not a backend's own start-up.
func (r *run) setupLayers(gen func() *capi.Program, optLevel int, specName string) error {
	group := r.tr.nextGroup()
	root := r.tr.begin("setup", group, 0)
	defer r.tr.end(root)
	// parent is the innermost open span, so a layer timed inside another
	// (dyncapi.start inside obj.load) nests under it.
	parent := root
	timed := func(name string, f func() error) error {
		s := r.tr.begin(name, group, parent)
		outer := parent
		parent = s
		start := time.Now()
		err := f()
		r.set(name+"_ms", float64(time.Since(start).Nanoseconds())/1e6, "ms")
		r.tr.end(s)
		parent = outer
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var p *capi.Program
	_ = timed("workload.generate", func() error { p = gen(); return nil })
	if err := timed("metacg.build", func() error {
		g := metacg.BuildWholeProgram(p, metacg.Options{})
		r.set("callgraph.nodes", float64(g.Len()), "count")
		return nil
	}); err != nil {
		return err
	}
	var b *compiler.Build
	if err := timed("compiler.compile", func() (err error) {
		b, err = compiler.Compile(p, compiler.Options{XRay: true, OptLevel: optLevel})
		return err
	}); err != nil {
		return err
	}
	var cfg *ic.Config
	if specName != "" {
		src, err := experiments.SpecSource(specName)
		if err != nil {
			return err
		}
		res, err := core.NewEngine(metacg.BuildWholeProgram(p, metacg.Options{})).RunSource(src, core.Options{Symbols: b, Loader: spec.BuiltinModules{}})
		if err != nil {
			return err
		}
		cfg = res.IC(p.Name, "")
	}
	return timed("obj.load", func() error {
		proc, err := b.LoadProcess()
		if err != nil {
			return err
		}
		return timed("dyncapi.start", func() error {
			xr, err := xray.NewRuntime(proc)
			if err != nil {
				return err
			}
			rt, err := dyncapi.New(proc, xr, cfg, &dyncapi.CygBackend{}, dyncapi.Options{PatchAll: specName == "", Ranks: ranks})
			if err != nil {
				return err
			}
			rt.Close()
			st := xr.Stats()
			r.set("xray.patched_sleds", float64(st.PatchedSleds), "count")
			r.set("xray.mprotect_windows", float64(st.BatchWindows), "count")
			return nil
		})
	})
}

// rung is one stage of the dispatch ladder: the same four-kernel harness
// with one more stage switched on.
type rung struct {
	metric string
	spec   string                               // experiments.NewDispatchHarness backend spec
	prep   func(h *experiments.DispatchHarness) // adjusts the harness before timing
}

// ladderIters is the enter/exit pairs one timing of a rung dispatches;
// the median of ladderReps timings is reported.
const (
	ladderIters = 200_000
	ladderReps  = 7
)

// dispatchLadder times each rung of the dispatch path and reports ns per
// delivered event. The async rungs push batches that fit the ring, time the
// producer and the drain that follows, and charge both to the events that
// reached the backend. Every rung's delivered and dropped counts go to
// standard error, read from the rung itself (see rungCounts). It returns
// the ns-per-event figures by metric name.
func (r *run) dispatchLadder() (map[string]float64, error) {
	var noopCalls int64
	noop := func(xray.ThreadCtx, int32, xray.EntryType) { noopCalls++ }
	rungs := []rung{
		{"xray.dispatch_ns.nohandler", "none", func(h *experiments.DispatchHarness) { h.XR.SetHandler(nil) }},
		{"xray.dispatch_ns.noop", "none", func(h *experiments.DispatchHarness) { h.XR.SetHandler(noop) }},
		{"dyncapi.dispatch_ns.none", "none", nil},
		{"dyncapi.dispatch_ns.sampled", "sampled:none@64", nil},
		{"dyncapi.dispatch_ns.mux1", "mux:none", nil},
		{"dyncapi.dispatch_ns.talp", "talp", nil},
		{"dyncapi.dispatch_ns.scorep", "scorep", nil},
		{"dyncapi.dispatch_ns.extrae", "extrae", nil},
		{"dyncapi.dispatch_ns.talp_extrae", "talp,extrae", nil},
	}
	out := map[string]float64{}
	fmt.Fprintf(os.Stderr, "%-36s %10s %12s %10s\n", "rung", "ns/event", "delivered", "dropped")
	for _, rg := range rungs {
		h, err := experiments.NewDispatchHarness(rg.spec, nil)
		if err != nil {
			return nil, err
		}
		if rg.prep != nil {
			rg.prep(h)
		}
		var ns samples
		for k := 0; k < ladderReps; k++ {
			s := r.tr.begin(rg.metric, r.tr.nextGroup(), 0)
			start := time.Now()
			for i := 0; i < ladderIters; i++ {
				h.Dispatch(i)
			}
			ns = append(ns, float64(time.Since(start).Nanoseconds())/(2*ladderIters))
			r.tr.end(s)
		}
		counts := fmt.Sprintf("%12s %10s", "-", "-")
		switch rg.metric {
		case "xray.dispatch_ns.nohandler":
			// No handler, no backend: nothing counts the events.
		case "xray.dispatch_ns.noop":
			counts = fmt.Sprintf("%12d %10d", noopCalls, 2*ladderIters*ladderReps-noopCalls)
		default:
			delivered, dropped, err := rungCounts(h)
			if err != nil {
				r.led.op(fmt.Errorf("%s: %w", rg.metric, err))
			}
			counts = fmt.Sprintf("%12d %10d", delivered, dropped)
		}
		h.Close()
		out[rg.metric] = ns.median()
		r.set(rg.metric, ns.median(), "ns")
		fmt.Fprintf(os.Stderr, "%-36s %10.2f %s\n", rg.metric, ns.median(), counts)
	}
	if err := r.pipelineRungs(out); err != nil {
		return nil, err
	}
	return out, nil
}

// rungCounts reads the events a harness delivered and dropped over all its
// timings. Dropped events are the runtime's own counts (outside the
// selection, or rejected by the async ring) plus extrae's. Delivered events
// are the extrae buffer's recorded count, scorep's visits, or the sampler's
// delivered enters (the 1-in-64 events a policy leaves out are the policy,
// not a loss). The discarding and talp backends keep no count, so theirs
// is what was not dropped. It fails when the counts do not add up to the
// events dispatched.
func rungCounts(h *experiments.DispatchHarness) (delivered, dropped int64, err error) {
	dispatched := int64(2 * ladderIters * ladderReps)
	dropped = h.RT.DroppedEvents() + 2*h.RT.DroppedAsync()
	if snap := h.RT.SamplingSnapshot(); snap.Configured {
		h.RT.FlushSampling()
		c := h.RT.SamplingCounters()
		dispatched -= 2 * c.SampledEvents
		delivered = 2 * c.Delivered
	} else if h.Buf != nil {
		rep := h.Buf.Report()
		delivered, dropped = rep.Recorded, dropped+rep.Dropped
	} else if b, ok := h.RT.Backend().(*dyncapi.ScorePBackend); ok {
		for _, reg := range b.M.Profile().Regions {
			delivered += 2 * reg.Visits
		}
	} else {
		delivered = dispatched - dropped
	}
	if delivered+dropped != dispatched {
		err = fmt.Errorf("%d delivered + %d dropped != %d dispatched", delivered, dropped, dispatched)
	}
	return delivered, dropped, err
}

// pipelineRungs times the async pipeline in front of extrae: producer
// appends per event, consumer replay per event of the backlog left when the
// producer stops, and the two charged together per delivered event.
func (r *run) pipelineRungs(out map[string]float64) error {
	h, err := experiments.NewDispatchHarness("async:extrae", nil)
	if err != nil {
		return err
	}
	defer h.Close()
	// A batch of pairs that fits the default ring with room to spare, so a
	// sized ring drops nothing and the cost is charged to delivered events.
	const batchPairs = dyncapi.DefaultAsyncBuf / 4
	var appendNs, replayNs, totalNs samples
	var attempted int64
	for k := 0; k < ladderReps*4; k++ {
		h.RT.DrainPipeline()
		s := r.tr.begin("pipeline.batch", r.tr.nextGroup(), 0)
		start := time.Now()
		for i := 0; i < batchPairs; i++ {
			h.Dispatch(i)
		}
		produced := time.Since(start)
		backlog := h.RT.PipelineDepth()
		h.RT.DrainPipeline()
		total := time.Since(start)
		r.tr.end(s)
		attempted += 2 * batchPairs
		appendNs = append(appendNs, float64(produced.Nanoseconds())/(2*batchPairs))
		if backlog > 0 {
			replayNs = append(replayNs, float64((total-produced).Nanoseconds())/float64(backlog))
		}
		totalNs = append(totalNs, float64(total.Nanoseconds())/(2*batchPairs))
	}
	dropped := 2 * h.RT.DroppedAsync()
	rep := h.Buf.Report()
	delivered := rep.Recorded
	if delivered+dropped != attempted {
		r.led.op(fmt.Errorf("pipeline rung: %d delivered + %d dropped != %d attempted", delivered, dropped, attempted))
	}
	ratio := float64(delivered) / float64(attempted)
	r.set("pipeline.append_ns", appendNs.median(), "ns")
	if len(replayNs) > 0 {
		r.set("pipeline.replay_ns", replayNs.median(), "ns")
	}
	// Charged per delivered event: a dropped pair makes the rung dearer.
	r.set("pipeline.async_ns_per_delivered", totalNs.median()/ratio, "ns")
	r.set("pipeline.delivered_ratio", ratio, "ratio")
	out["pipeline.async_ns_per_delivered"] = totalNs.median() / ratio
	fmt.Fprintf(os.Stderr, "%-36s %10.2f %12d %10d\n", "pipeline.async_ns_per_delivered", totalNs.median()/ratio, delivered, dropped)
	return nil
}
