// SLO mode: when Options.SLOTargetP99Ns is set the controller stops
// steering by the overhead budget (maybeEpoch disarms) and instead walks
// the demote→deselect ladder *per endpoint*, driven by measured tail
// latency. The objective is inverted relative to budget mode: "p99 ≤ X
// with max instrumentation coverage" — narrowing only while the endpoint
// misses its target, and un-walking the ladder (LIFO) to restore coverage
// once the tail sits comfortably under it. The cost signal is the real
// one users care about — request latency including instrumentation — not
// a modelled events×ns estimate.
//
// The HTTP middleware feeds the controller: it registers each route's
// instrumented call tree (RegisterEndpoint) and reports every completed
// request's latency (ObserveRequest). Evaluation happens on the request
// path but is cheap and rare: one ring-buffer write per request, a p99
// sort every sloEvalEvery requests per endpoint, and at most one ladder
// step per evaluation, serialized with budget epochs through the same
// inEpoch gate.
package adapt

import (
	"sort"
	"sync"
	"sync/atomic"

	"capi/internal/dyncapi"
	"capi/internal/ic"
)

const (
	// DefaultSLOWindow is the per-endpoint latency window (requests) the
	// p99 is computed over when Options.SLOWindow is 0.
	DefaultSLOWindow = 256
	// DefaultSLOMinSamples gates evaluation until an endpoint's window has
	// seen enough requests for a p99 to mean anything.
	DefaultSLOMinSamples = 64
	// sloEvalEvery is how many requests an endpoint absorbs between
	// evaluations: frequent enough to react within ~a window, rare enough
	// that the sort never shows up in request latency.
	sloEvalEvery = 32
	// sloWidenHeadroom is the hysteresis band for restoring coverage: the
	// ladder is un-walked only while p99 ≤ headroom × target, so widening
	// (which triggers well under target) cannot oscillate against
	// narrowing (which triggers only above it).
	sloWidenHeadroom = 0.75
	// sloWidenWaitMax caps the widen backoff (in evaluations). The
	// headroom band alone cannot prevent oscillation when one ladder
	// action swings the endpoint's p99 by more than the band's width (a
	// dropped subtree can be worth many ms), so every widen that is
	// punished by a narrow within the next two evaluations doubles the
	// endpoint's wait before it may widen again.
	sloWidenWaitMax = 256
)

// sloAction is one ladder step taken for an endpoint, recorded so it can
// be undone in LIFO order when the endpoint has headroom again.
type sloAction struct {
	drop bool // false: demoted to 1-in-N; true: deselected
	id   int32
	name string
}

// endpointStat is the controller's per-endpoint accumulator: the route's
// instrumented function set, a ring of recent request latencies, and the
// stack of ladder steps currently in effect for it.
type endpointStat struct {
	name    string
	funcIDs []int32 // sorted, deduplicated; immutable after registration

	requests atomic.Int64
	lastP99  atomic.Int64 // most recently computed window p99 (0 = none yet)

	mu        sync.Mutex
	ring      []int64     //capi:guardedby mu
	written   int         //capi:guardedby mu
	sinceEval int         //capi:guardedby mu
	actions   []sloAction //capi:guardedby mu
	evals     int         //capi:guardedby mu — evaluations run for this endpoint
	lastWiden int         //capi:guardedby mu — evals value at the last widen (0 = never)
	widenWait int         //capi:guardedby mu — evals to wait between widens (backoff)
}

// RegisterEndpoint declares one endpoint's instrumented function set. The
// middleware calls it once per route at construction; re-registering a
// name replaces the function set but keeps the latency window and ladder
// state. Unregistered endpoints' observations are ignored.
func (c *Controller) RegisterEndpoint(name string, funcIDs []int32) {
	ids := append([]int32(nil), funcIDs...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ids = slicesCompactInt32(ids)
	if v, ok := c.endpoints.Load(name); ok {
		es := v.(*endpointStat)
		es.mu.Lock()
		es.funcIDs = ids
		es.mu.Unlock()
		return
	}
	c.endpoints.LoadOrStore(name, &endpointStat{name: name, funcIDs: ids})
}

func slicesCompactInt32(ids []int32) []int32 {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// ObserveRequest records one completed request's latency for an endpoint
// and, every sloEvalEvery requests once the window is warm, evaluates the
// endpoint's p99 against the SLO target and walks the ladder one step in
// whichever direction the tail demands. With no SLO target set the window
// still fills (so a later Retune starts from warm state) but no decisions
// are taken.
func (c *Controller) ObserveRequest(endpoint string, latencyNs int64) {
	v, ok := c.endpoints.Load(endpoint)
	if !ok {
		return
	}
	es := v.(*endpointStat)
	es.requests.Add(1)
	opts := c.opts.Load()

	es.mu.Lock()
	if len(es.ring) != opts.SLOWindow {
		// First observation, or the window was retuned: restart the ring.
		es.ring = make([]int64, opts.SLOWindow)
		es.written, es.sinceEval = 0, 0
	}
	es.ring[es.written%len(es.ring)] = latencyNs
	es.written++
	es.sinceEval++
	filled := min(es.written, len(es.ring))
	var window []int64
	var evalNo int
	widenOK := false
	if opts.SLOTargetP99Ns > 0 && es.sinceEval >= sloEvalEvery && filled >= min(opts.SLOMinSamples, len(es.ring)) {
		es.sinceEval = 0
		window = append([]int64(nil), es.ring[:filled]...)
		es.evals++
		evalNo = es.evals
		wait := max(es.widenWait, 1)
		widenOK = es.lastWiden == 0 || evalNo-es.lastWiden >= wait
	}
	es.mu.Unlock()
	if window == nil {
		return
	}

	p99 := percentileNs(window, 0.99)
	es.lastP99.Store(p99)
	rt := c.rt.Load()
	if rt == nil {
		return
	}
	// Same gate as budget epochs: at most one controller decision in
	// flight, across all endpoints. Losing the race just defers this
	// endpoint to its next evaluation.
	if !c.inEpoch.CompareAndSwap(false, true) {
		return
	}
	defer c.inEpoch.Store(false)
	target := opts.SLOTargetP99Ns
	switch {
	case p99 > target:
		c.sloNarrow(rt, es, p99, target, opts)
		// A violation right after a widen means the restored coverage is
		// what broke the SLO: back the endpoint's widen cadence off so the
		// ladder settles instead of ping-ponging one action forever.
		es.mu.Lock()
		if es.lastWiden > 0 && evalNo-es.lastWiden <= 2 {
			es.widenWait = min(max(es.widenWait, 1)*2, sloWidenWaitMax)
		}
		es.mu.Unlock()
	case float64(p99) <= sloWidenHeadroom*float64(target) && widenOK:
		c.sloWiden(rt, es, p99, target, opts)
		es.mu.Lock()
		es.lastWiden = evalNo
		es.mu.Unlock()
	}
}

// percentileNs returns the q-quantile of window by sorting a copy; window
// is owned by the caller and may be clobbered.
func percentileNs(window []int64, q float64) int64 {
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	idx := int(q*float64(len(window))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(window) {
		idx = len(window) - 1
	}
	return window[idx]
}

// sloNarrow takes one ladder step down for an endpoint missing its
// target: demote the endpoint's hottest still-full-rate function, or —
// when every candidate is already demoted (or the ladder is disabled) —
// deselect the hottest one outright. One step per evaluation keeps the
// controller observable: the next window measures the step's effect
// before another is taken.
func (c *Controller) sloNarrow(rt *dyncapi.Runtime, es *endpointStat, p99, target int64, opts *Options) {
	ep := Epoch{Rank: -1, Endpoint: es.name, P99Ns: p99, TargetNs: target}
	type cand struct {
		id     int32
		name   string
		events int64
		meanNs int64
	}
	var cands []cand
	for _, id := range es.funcIDs {
		if !rt.Active(id) {
			continue
		}
		rf := rt.Resolved(id)
		if rf == nil {
			continue
		}
		cd := cand{id: id, name: rf.Name}
		if v, ok := c.stats.Load(id); ok {
			st := v.(*funcStat)
			cd.events = st.events.Load()
			cd.meanNs = st.meanNs()
		}
		cands = append(cands, cd)
	}
	if len(cands) == 0 {
		c.record(ep, false)
		return
	}
	// Same victim order as budget narrowing: low-duration functions first
	// (least measurement value per event), then hottest, then by ID.
	lowDur := func(mean int64) bool { return mean >= 0 && mean < opts.MinMeanNs }
	sort.Slice(cands, func(i, j int) bool {
		li, lj := lowDur(cands[i].meanNs), lowDur(cands[j].meanNs)
		if li != lj {
			return li
		}
		if cands[i].events != cands[j].events {
			return cands[i].events > cands[j].events
		}
		return cands[i].id < cands[j].id
	})

	if opts.DemoteStride > 0 {
		for _, cd := range cands {
			if c.isDemoted(cd.id) {
				continue
			}
			if err := rt.SetFuncSampling(cd.id, &dyncapi.SamplePolicy{Stride: opts.DemoteStride}); err != nil {
				continue
			}
			c.mu.Lock()
			c.demoted = append(c.demoted, demotion{id: cd.id, name: cd.name})
			c.demotedSet[cd.id] = true
			c.mu.Unlock()
			es.mu.Lock()
			es.actions = append(es.actions, sloAction{id: cd.id, name: cd.name})
			es.mu.Unlock()
			ep.Demoted = append(ep.Demoted, displayName(cd.name, cd.id))
			ep.DemotedIDs = append(ep.DemotedIDs, cd.id)
			c.record(ep, false)
			return
		}
	}

	// Every endpoint function still instrumented is already demoted:
	// deselect the hottest one. MaxReconfigs bounds re-selections exactly
	// as in budget mode.
	c.mu.Lock()
	limited := opts.MaxReconfigs > 0 && c.reconfigs >= opts.MaxReconfigs
	c.mu.Unlock()
	if limited {
		c.record(ep, false)
		return
	}
	victim := cands[0]
	var names []string
	var keepIDs []int32
	for _, rf := range rt.ActiveFuncs() {
		if rf.PackedID == victim.id {
			continue
		}
		if rf.Name != "" {
			names = append(names, rf.Name)
		}
		keepIDs = append(keepIDs, rf.PackedID)
	}
	rep, err := rt.Reconfigure(c.sloIC(rt, names).WithIncludeIDs(keepIDs))
	if err != nil {
		c.record(ep, false)
		return
	}
	ep.Dropped = append(ep.Dropped, displayName(victim.name, victim.id))
	ep.DroppedIDs = append(ep.DroppedIDs, victim.id)
	ep.Reconfigured = true
	ep.Report = rep

	c.mu.Lock()
	c.reconfigs++
	c.dropped = append(c.dropped, ep.Dropped...)
	if c.demotedSet[victim.id] {
		delete(c.demotedSet, victim.id)
		kept := c.demoted[:0]
		for _, d := range c.demoted {
			if d.id != victim.id {
				kept = append(kept, d)
			}
		}
		c.demoted = kept
	}
	c.mu.Unlock()
	// A deselected function leaves the sampler ladder so a later widen or
	// manual re-selection measures it at full rate.
	rt.SetFuncSampling(victim.id, nil) //nolint:errcheck // best-effort cleanup
	es.mu.Lock()
	es.actions = append(es.actions, sloAction{drop: true, id: victim.id, name: victim.name})
	es.mu.Unlock()
	c.record(ep, false)
}

// sloWiden undoes the endpoint's most recent ladder step — max coverage
// is the objective, so headroom under the target is spent on restoring
// instrumentation, one step per evaluation.
func (c *Controller) sloWiden(rt *dyncapi.Runtime, es *endpointStat, p99, target int64, opts *Options) {
	es.mu.Lock()
	n := len(es.actions)
	if n == 0 {
		es.mu.Unlock()
		return
	}
	act := es.actions[n-1]
	es.actions = es.actions[:n-1]
	es.mu.Unlock()

	ep := Epoch{Rank: -1, Endpoint: es.name, P99Ns: p99, TargetNs: target}
	if !act.drop {
		if err := rt.SetFuncSampling(act.id, nil); err == nil {
			c.mu.Lock()
			if c.demotedSet[act.id] {
				delete(c.demotedSet, act.id)
				kept := c.demoted[:0]
				for _, d := range c.demoted {
					if d.id != act.id {
						kept = append(kept, d)
					}
				}
				c.demoted = kept
			}
			c.mu.Unlock()
			ep.Promoted = append(ep.Promoted, displayName(act.name, act.id))
			c.record(ep, false)
		}
		return
	}

	c.mu.Lock()
	limited := opts.MaxReconfigs > 0 && c.reconfigs >= opts.MaxReconfigs
	c.mu.Unlock()
	if limited {
		// Cannot re-patch: put the action back so a lifted bound can still
		// undo it later.
		es.mu.Lock()
		es.actions = append(es.actions, act)
		es.mu.Unlock()
		return
	}
	var names []string
	var keepIDs []int32
	for _, rf := range rt.ActiveFuncs() {
		if rf.PackedID == act.id {
			continue // already back somehow; the Reconfigure below is then a no-op re-add
		}
		if rf.Name != "" {
			names = append(names, rf.Name)
		}
		keepIDs = append(keepIDs, rf.PackedID)
	}
	if act.name != "" {
		names = append(names, act.name)
	}
	keepIDs = append(keepIDs, act.id)
	rep, err := rt.Reconfigure(c.sloIC(rt, names).WithIncludeIDs(keepIDs))
	if err != nil {
		es.mu.Lock()
		es.actions = append(es.actions, act)
		es.mu.Unlock()
		return
	}
	c.mu.Lock()
	c.reconfigs++
	c.mu.Unlock()
	ep.Readded = append(ep.Readded, displayName(act.name, act.id))
	ep.Reconfigured = true
	ep.Report = rep
	c.record(ep, false)
}

// sloIC builds the instrumentation configuration document for an SLO
// reconfiguration, stamped like budget-mode narrowing but with the slo
// spec suffix so /v1/status shows which controller produced it.
func (c *Controller) sloIC(rt *dyncapi.Runtime, names []string) *ic.Config {
	app, spec := "", "slo"
	if cfg := rt.Config(); cfg != nil {
		app = cfg.App
		if cfg.Spec != "" {
			spec = cfg.Spec + "+slo"
		}
	}
	return ic.New(app, spec, names)
}

// SLOEndpoint is one endpoint row of the SLO status document.
type SLOEndpoint struct {
	Endpoint string `json:"endpoint"`
	Requests int64  `json:"requests"`
	// P99Ms is the most recently evaluated window p99; 0 until the first
	// evaluation.
	P99Ms float64 `json:"p99Ms"`
	// Met reports whether that p99 sat at or under the target.
	Met bool `json:"met"`
	// Steps is the number of ladder actions currently in effect for the
	// endpoint; Demoted and Dropped list them.
	Steps   int      `json:"steps"`
	Demoted []string `json:"demoted,omitempty"`
	Dropped []string `json:"dropped,omitempty"`
}

// SLOStatus is the controller's SLO-mode snapshot for /v1/status.
type SLOStatus struct {
	TargetP99Ms float64       `json:"targetP99Ms"`
	Window      int           `json:"window"`
	MinSamples  int           `json:"minSamples"`
	Endpoints   []SLOEndpoint `json:"endpoints,omitempty"`
}

// SLOSnapshot returns the SLO-mode status, or nil when no SLO target is
// set (budget mode).
func (c *Controller) SLOSnapshot() *SLOStatus {
	opts := c.opts.Load()
	if opts.SLOTargetP99Ns <= 0 {
		return nil
	}
	out := &SLOStatus{
		TargetP99Ms: float64(opts.SLOTargetP99Ns) / 1e6,
		Window:      opts.SLOWindow,
		MinSamples:  opts.SLOMinSamples,
	}
	c.endpoints.Range(func(_, v any) bool {
		es := v.(*endpointStat)
		row := SLOEndpoint{Endpoint: es.name, Requests: es.requests.Load()}
		if p99 := es.lastP99.Load(); p99 > 0 {
			row.P99Ms = float64(p99) / 1e6
			row.Met = p99 <= opts.SLOTargetP99Ns
		}
		es.mu.Lock()
		row.Steps = len(es.actions)
		for _, act := range es.actions {
			if act.drop {
				row.Dropped = append(row.Dropped, displayName(act.name, act.id))
			} else {
				row.Demoted = append(row.Demoted, displayName(act.name, act.id))
			}
		}
		es.mu.Unlock()
		out.Endpoints = append(out.Endpoints, row)
		return true
	})
	sort.Slice(out.Endpoints, func(i, j int) bool { return out.Endpoints[i].Endpoint < out.Endpoints[j].Endpoint })
	return out
}
