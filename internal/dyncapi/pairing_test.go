package dyncapi

import (
	"sync"
	"testing"

	"capi/internal/ic"
	"capi/internal/vtime"
	"capi/internal/xray"
)

// The pairing harness drives random legal programs — nested enter/exit
// sequences on two ranks, up to the execution engine's 512-frame limit —
// through a live Runtime while it changes sampling policies and the
// selection between events, and checks the result against an independent
// reference model. Every op is two bytes: the first selects the op (low 3
// bits) and the virtual time that passes before each of its events (high 5
// bits); the second is the op's argument.
//
//	0-2 enter   arg: rank bit 0, function (arg>>1&3)%3, 1+arg>>3 nested frames
//	3-4 exit    arg: rank bit 0, 1+arg>>1 frames (stops at an empty stack)
//	5   policy  arg&3 < 3: SetFuncSampling(function arg&3, policy(arg>>2))
//	            arg&3 == 3: remove function (arg>>2)%3's override
//	6   table   arg odd: SetSampling with default policy(arg>>1); even: clear
//	7   select  toggle function arg%3 in the selection and Reconfigure
//
// Deselection may happen mid-call: the open frames' exit sleds are restored
// and the Deselector closes them with synthetic exits. Reselection only
// happens while the function has no open frame on any rank — an exit whose
// enter predates the reselection belongs to a frame the Deselector already
// closed, which no backend can pair.

var pairingFuncs = []string{"main", "kernel", "dso_fn"}

const (
	pairingRanks    = 2
	pairingMaxDepth = 512
)

type pairingCtx struct {
	rank int
	clk  vtime.Clock
}

func (c *pairingCtx) RankID() int         { return c.rank }
func (c *pairingCtx) Clock() *vtime.Clock { return &c.clk }

// pairingBackend counts deliveries per function and keeps per-(rank,
// function) open counts, closing them on OnDeselect the way Score-P and
// TALP close dangling regions. An exit with no open enter is a stray. The
// async consumers deliver from their own goroutines, hence the mutex.
type pairingBackend struct {
	mu                          sync.Mutex
	open                        map[[2]int32]int
	enters, exits, synth, stray map[int32]int
}

func newPairingBackend() *pairingBackend {
	return &pairingBackend{open: map[[2]int32]int{}, enters: map[int32]int{},
		exits: map[int32]int{}, synth: map[int32]int{}, stray: map[int32]int{}}
}

func (b *pairingBackend) Name() string       { return "pairing" }
func (b *pairingBackend) InitCost(int) int64 { return 0 }

func (b *pairingBackend) OnEnter(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.open[[2]int32{int32(tc.RankID()), fn.PackedID}]++
	b.enters[fn.PackedID]++
}

func (b *pairingBackend) OnExit(tc xray.ThreadCtx, fn *ResolvedFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := [2]int32{int32(tc.RankID()), fn.PackedID}
	if b.open[k] == 0 {
		b.stray[fn.PackedID]++
		return
	}
	b.open[k]--
	b.exits[fn.PackedID]++
}

func (b *pairingBackend) OnDeselect(fn *ResolvedFunc) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for r := int32(0); r < pairingRanks; r++ {
		k := [2]int32{r, fn.PackedID}
		n += b.open[k]
		delete(b.open, k)
	}
	b.synth[fn.PackedID] += n
	return n
}

// modelFrame is one open invocation the model's sampler saw.
type modelFrame struct {
	deliver, timed bool
	start          int64
	cls            int
}

// modelSlot is the model's (function, rank) sampling state.
type modelSlot struct {
	ctr              int64
	frames           []modelFrame
	lastDur, lastEnd int64
}

// pairingModel predicts, from the policy semantics documented on
// SamplePolicy, which events the sampler passes and what it counts. It is
// deliberately written without the runtime's packed words and bit stacks.
type pairingModel struct {
	def       SamplePolicy
	published bool // a table was installed: first events materialize state
	override  map[int]SamplePolicy
	slots     map[int]*[pairingRanks]modelSlot // per function, nil = no state

	dispatched int64 // enters that reached the handler
	counters   SamplingCounters
	admitted   [3]int64 // enters the sampler passed, per function
	open       [3][pairingRanks]int64
	exits      [3]int64
	synth      [3]int64
}

func (m *pairingModel) policy(f int) SamplePolicy {
	if p, ok := m.override[f]; ok {
		return p
	}
	return m.def
}

func (m *pairingModel) slot(f, rank int, materialize bool) *modelSlot {
	s := m.slots[f]
	if s == nil {
		if !materialize {
			return nil
		}
		s = new([pairingRanks]modelSlot)
		for r := range s {
			s[r].lastDur = -1
		}
		m.slots[f] = s
	}
	return &s[rank]
}

func (m *pairingModel) enter(f, rank int, now int64) {
	m.dispatched++
	deliver := true
	if sl := m.slot(f, rank, m.published); sl != nil {
		p := m.policy(f)
		m.counters.Enters++
		sl.ctr++
		fr := modelFrame{start: now}
		if p.Stride > 1 && (sl.ctr-1)%int64(p.Stride) != 0 {
			deliver = false
			fr.cls = clsSampledOut
			m.counters.SampledEvents++
		}
		gap := p.RedundantGapNs
		if p.CollapseRedundant && gap == 0 {
			gap = DefaultRedundantGapNs
		}
		fr.timed = p.MinDurationNs > 0 || p.CollapseRedundant
		if fr.timed && deliver && sl.lastDur >= 0 {
			short := p.MinDurationNs
			if short <= 0 {
				short = gap
			}
			switch {
			case p.CollapseRedundant && now-sl.lastEnd <= gap && sl.lastDur < short:
				deliver, fr.cls = false, clsCollapsed
				m.counters.CollapsedCalls++
			case p.MinDurationNs > 0 && sl.lastDur < p.MinDurationNs:
				deliver, fr.cls = false, clsSuppressed
				m.counters.SuppressedPairs++
			}
		}
		fr.deliver = deliver
		sl.frames = append(sl.frames, fr)
	}
	if deliver {
		m.admitted[f]++
		m.open[f][rank]++
	}
}

func (m *pairingModel) exit(f, rank int, now int64) {
	deliver := true
	if sl := m.slot(f, rank, m.published); sl != nil && len(sl.frames) > 0 {
		fr := sl.frames[len(sl.frames)-1]
		sl.frames = sl.frames[:len(sl.frames)-1]
		deliver = fr.deliver
		if fr.timed {
			dur := now - fr.start
			sl.lastDur, sl.lastEnd = dur, now
			switch fr.cls {
			case clsSuppressed:
				m.counters.SuppressedNs += dur
			case clsCollapsed:
				m.counters.CollapsedNs += dur
			}
		}
	}
	if deliver && m.open[f][rank] > 0 {
		m.open[f][rank]--
		m.exits[f]++
	}
}

func (m *pairingModel) deselect(f int) {
	for r := range m.open[f] {
		m.synth[f] += m.open[f][r]
		m.open[f][r] = 0
	}
}

// pairingPolicy decodes a policy from six bits: stride, min duration,
// redundancy collapse and its gap.
func pairingPolicy(b byte) SamplePolicy {
	p := SamplePolicy{
		Stride:            []int{0, 2, 3, 4}[b&3],
		MinDurationNs:     []int64{0, 8, 40, 0}[(b>>2)&3],
		CollapseRedundant: b&16 != 0,
	}
	if p.CollapseRedundant && b&32 != 0 {
		p.RedundantGapNs = 16
	}
	return p
}

// pairingRun executes one program, drains, and returns the runtime and the
// backend. It fails t on any divergence from the model or broken balance.
func pairingRun(t *testing.T, async bool, buf uint16, ops []byte) (*Runtime, *pairingBackend) {
	t.Helper()
	b := buildProg(t)
	proc, xr := setup(t, b)
	back := newPairingBackend()
	rt, err := New(proc, xr, ic.New("app", "fuzz", pairingFuncs), back,
		Options{Ranks: pairingRanks, Async: async, AsyncBuf: int(buf)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var ids [3]int32
	for i, name := range pairingFuncs {
		ids[i] = packedOf(t, b, xr, proc, name)
	}
	m := &pairingModel{override: map[int]SamplePolicy{}, slots: map[int]*[pairingRanks]modelSlot{}}
	selected := [3]bool{true, true, true}
	var ctxs [pairingRanks]pairingCtx
	var stacks [pairingRanks][]int
	for r := range ctxs {
		ctxs[r].rank = r
	}
	event := func(rank, f int, kind xray.EntryType, adv int64) {
		tc := &ctxs[rank]
		tc.clk.Advance(adv)
		if !xr.Patched(ids[f]) {
			return
		}
		xr.Dispatch(tc, ids[f], kind)
		if kind == xray.Entry {
			m.enter(f, rank, tc.clk.Now())
		} else {
			m.exit(f, rank, tc.clk.Now())
		}
	}
	exit := func(rank int, adv int64) {
		s := stacks[rank]
		f := s[len(s)-1]
		stacks[rank] = s[:len(s)-1]
		event(rank, f, xray.Exit, adv)
	}
	openFrames := func(f int) bool {
		for _, s := range stacks {
			for _, g := range s {
				if g == f {
					return true
				}
			}
		}
		return false
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		adv := int64(op >> 3)
		switch op & 7 {
		case 0, 1, 2:
			rank, f := int(arg&1), int(arg>>1&3)%3
			for n := 1 + int(arg>>3); n > 0 && len(stacks[rank]) < pairingMaxDepth; n-- {
				stacks[rank] = append(stacks[rank], f)
				event(rank, f, xray.Entry, adv)
			}
		case 3, 4:
			rank := int(arg & 1)
			for n := 1 + int(arg>>1); n > 0 && len(stacks[rank]) > 0; n-- {
				exit(rank, adv)
			}
		case 5:
			if f := int(arg & 3); f < 3 {
				p := pairingPolicy(arg >> 2)
				if err := rt.SetFuncSampling(ids[f], &p); err != nil {
					t.Fatal(err)
				}
				m.override[f] = p
				m.slot(f, 0, true) // an override materializes the state eagerly
			} else {
				f = int(arg>>2) % 3
				if err := rt.SetFuncSampling(ids[f], nil); err != nil {
					t.Fatal(err)
				}
				delete(m.override, f)
			}
		case 6:
			var cfg SamplingConfig
			m.def = SamplePolicy{}
			if arg&1 == 1 {
				p := pairingPolicy(arg >> 1)
				cfg.Default, m.def = &p, p
			}
			if err := rt.SetSampling(cfg); err != nil {
				t.Fatal(err)
			}
			m.published = true
			m.override = map[int]SamplePolicy{}
		case 7:
			f := int(arg) % 3
			if !selected[f] && openFrames(f) {
				continue
			}
			selected[f] = !selected[f]
			var names []string
			for g, on := range selected {
				if on {
					names = append(names, pairingFuncs[g])
				}
			}
			rep, err := rt.Reconfigure(ic.New("app", "fuzz", names))
			if err != nil {
				t.Fatal(err)
			}
			prev := m.synth[f]
			if !selected[f] {
				m.deselect(f)
			}
			if !async && int64(rep.SyntheticExits) != m.synth[f]-prev {
				t.Fatalf("op %d: reconfigure reported %d synthetic exits, model %d", i/2, rep.SyntheticExits, m.synth[f]-prev)
			}
		}
	}
	for r := range stacks {
		for len(stacks[r]) > 0 {
			exit(r, 1)
		}
	}
	rt.DrainPipeline()
	rt.FlushSampling()

	back.mu.Lock()
	defer back.mu.Unlock()
	var delivered int64
	for f, id := range ids {
		e, x, s := back.enters[id], back.exits[id], back.synth[id]
		delivered += int64(e)
		if back.stray[id] != 0 {
			t.Errorf("%s: %d exits without an open enter", pairingFuncs[f], back.stray[id])
		}
		if e != x+s {
			t.Errorf("%s: unbalanced: %d enters, %d exits + %d synthetic", pairingFuncs[f], e, x, s)
		}
		if int64(e) > m.admitted[f] {
			t.Errorf("%s: %d enters delivered, only %d admitted by the sampler", pairingFuncs[f], e, m.admitted[f])
		}
		if !async && (int64(e) != m.admitted[f] || int64(x) != m.exits[f] || int64(s) != m.synth[f]) {
			t.Errorf("%s: delivered %d enters / %d exits / %d synthetic, model %d / %d / %d",
				pairingFuncs[f], e, x, s, m.admitted[f], m.exits[f], m.synth[f])
		}
	}
	c := rt.SamplingCounters()
	m.counters.Delivered = m.counters.Enters - m.counters.SampledEvents - m.counters.SuppressedPairs - m.counters.CollapsedCalls
	if c != m.counters {
		t.Errorf("sampling counters %+v, model %+v", c, m.counters)
	}
	snap := rt.Snapshot()
	if got := delivered + c.SampledEvents + c.SuppressedPairs + c.CollapsedCalls + snap.DroppedAsync; got != m.dispatched {
		t.Errorf("conservation: delivered %d + sampled %d + suppressed %d + collapsed %d + droppedAsync %d = %d, enters %d",
			delivered, c.SampledEvents, c.SuppressedPairs, c.CollapsedCalls, snap.DroppedAsync, got, m.dispatched)
	}
	if snap.DroppedInFlight+snap.DroppedUnpatched+snap.DroppedAsyncOrphanExits != 0 {
		t.Errorf("unexpected drops: in-flight %d, unpatched %d, orphan exits %d",
			snap.DroppedInFlight, snap.DroppedUnpatched, snap.DroppedAsyncOrphanExits)
	}
	return rt, back
}

// deepNest is 100 nested frames of kernel on rank 0 followed by their 100
// exits, one virtual ns apart.
var deepNest = []byte{8, 250, 8, 250, 8, 250, 8, 26, 11, 198}

// TestPairingDeeperThan64 pins the pairing stacks past one 64-bit word: a
// stride-2 sampler, the default async ring and a ring too small for the
// nest must all close every frame they opened.
func TestPairingDeeperThan64(t *testing.T) {
	kernel := func(rt *Runtime, back *pairingBackend) (enters, exits int) {
		for _, f := range rt.Funcs() {
			if f.Name == "kernel" {
				enters, exits = back.enters[f.PackedID], back.exits[f.PackedID]
			}
		}
		return enters, exits
	}
	t.Run("stride2", func(t *testing.T) {
		rt, back := pairingRun(t, false, 0, append([]byte{13, 5}, deepNest...))
		if e, x := kernel(rt, back); e != 50 || x != 50 {
			t.Fatalf("delivered %d enters / %d exits, want 50 / 50", e, x)
		}
	})
	t.Run("async-default-ring", func(t *testing.T) {
		rt, back := pairingRun(t, true, 0, deepNest)
		if e, x := kernel(rt, back); e != 100 || x != 100 || rt.DroppedAsync() != 0 {
			t.Fatalf("delivered %d enters / %d exits with %d dropped, want 100 / 100 / 0", e, x, rt.DroppedAsync())
		}
	})
	t.Run("async-ring-100", func(t *testing.T) {
		rt, back := pairingRun(t, true, 100, deepNest)
		if e, x := kernel(rt, back); e != x || int64(e)+rt.DroppedAsync() != 100 {
			t.Fatalf("delivered %d enters / %d exits with %d dropped, want equal and summing to 100", e, x, rt.DroppedAsync())
		}
	})
}

// FuzzPairing checks per-function balance and the conservation identity
// for arbitrary programs, policy changes and selections, inline and async
// with any ring size (AsyncBuf 0 is the default ring).
func FuzzPairing(f *testing.F) {
	f.Add(false, uint16(0), append([]byte{13, 5}, deepNest...))
	f.Add(true, uint16(0), deepNest)
	f.Add(true, uint16(100), deepNest)
	// Two ranks, every policy knob, a mid-call deselect and a reselect.
	f.Add(true, uint16(8), []byte{
		6, 0x3b, 8, 250, 9, 251, 5, 0x51, 0x20, 2, 15, 7, 7, 1, 27, 40,
		8, 4, 28, 199, 7, 1, 16, 250, 6, 0, 8, 3, 21, 41, 11, 255, 12, 255,
	})
	f.Fuzz(func(t *testing.T, async bool, buf uint16, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		pairingRun(t, async, buf, ops)
	})
}
