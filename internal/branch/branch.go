// Package branch implements the branch direction predictors used by the core
// model. The target system (Table II) uses a hybrid local/global predictor;
// the gshare and local two-level predictors are its building blocks.
//
// Predictors are real hardware structures (counter tables, history
// registers), trained online by the instruction stream, so per-benchmark
// misprediction rates are emergent from each profile's static branch
// population and outcome biases.
//
// The predictors of the hybrid a simulated core trains on every branch
// allocate their tables and history registers through package pad: cores run
// on different host CPUs and must not write to a shared cache line.
package branch

import "scalesim/internal/pad"

// Predictor predicts conditional branch directions.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the actual outcome.
	Update(pc uint64, taken bool)
	// Name identifies the predictor configuration.
	Name() string
}

// counter is a 2-bit saturating counter; values 0-1 predict not-taken,
// 2-3 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

// update is the counter's one transition function: a lookup in counterNext,
// so that training on a branch whose outcome is a coin flip costs no
// mispredicted host branch.
func (c counter) update(taken bool) counter { return counterNext[(b2u(taken)<<2|uint64(c))&7] }

// counterNext[taken<<2 | c] is c moved one step toward taken, saturating at
// 0 and 3.
var counterNext = [8]counter{0, 0, 1, 2, 1, 2, 3, 3}

// chooserNext[disagree<<3 | globalRight<<2 | c] is the chooser entry c
// after a branch: left as it is when the components agreed, else moved one
// step toward the component that was right (3: global, 0: local).
var chooserNext = [16]counter{0, 1, 2, 3, 0, 1, 2, 3, 0, 0, 1, 2, 1, 2, 3, 3}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func hashPC(pc uint64) uint64 {
	// Drop instruction alignment bits and mix the rest so nearby branches
	// spread across table entries.
	pc >>= 2
	pc ^= pc >> 13
	pc *= 0x2545f4914f6cdd1d
	return pc ^ (pc >> 31)
}

// Gshare XORs a global history register with the PC to index a counter
// table, capturing correlation between branches. With no history bits it is
// a bimodal predictor: a PC-indexed table of 2-bit counters.
type Gshare struct {
	table   []counter
	mask    uint64
	history uint64
	histLen uint
}

// NewGshare returns a gshare predictor with entries counters and histLen
// bits of global history.
func NewGshare(entries int, histLen uint) *Gshare {
	entries = ceilPow2(entries)
	return pad.New(Gshare{table: pad.Slice[counter](entries), mask: uint64(entries - 1), histLen: histLen})
}

// Name implements Predictor.
func (g *Gshare) Name() string { return "gshare" }

// idx is the counter index of the branch whose PC hashes to h.
func (g *Gshare) idx(h uint64) uint64 {
	return (h ^ (g.history & ((1 << g.histLen) - 1))) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool { return g.table[g.idx(hashPC(pc))].taken() }

// Update implements Predictor.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.idx(hashPC(pc))
	g.table[i] = g.table[i].update(taken)
	g.history = g.history<<1 | b2u(taken)
}

// Local is a two-level predictor: a per-branch history table selects a
// pattern-indexed counter table, capturing per-branch periodic behaviour.
type Local struct {
	histories []uint16
	counters  []counter
	histMask  uint64
	cntMask   uint64
}

// NewLocal returns a local two-level predictor with histEntries history
// registers of histLen bits and 2^histLen pattern counters.
func NewLocal(histEntries int, histLen uint) *Local {
	histEntries = ceilPow2(histEntries)
	cnt := 1 << histLen
	return pad.New(Local{
		histories: pad.Slice[uint16](histEntries),
		counters:  pad.Slice[counter](cnt),
		histMask:  uint64(histEntries - 1),
		cntMask:   uint64(cnt - 1),
	})
}

// Name implements Predictor.
func (l *Local) Name() string { return "local" }

// pattern is the counter index history register hi selects.
func (l *Local) pattern(hi uint64) uint64 {
	return uint64(l.histories[hi]) & l.cntMask
}

// Predict implements Predictor.
func (l *Local) Predict(pc uint64) bool { return l.counters[l.pattern(hashPC(pc)&l.histMask)].taken() }

// Update implements Predictor.
func (l *Local) Update(pc uint64, taken bool) {
	hi := hashPC(pc) & l.histMask
	p := l.pattern(hi)
	l.counters[p] = l.counters[p].update(taken)
	l.histories[hi] = l.histories[hi]<<1 | uint16(b2u(taken))
}

// Tournament is the Table II "hybrid local/global predictor": a chooser
// table of 2-bit counters picks, per branch, between a local two-level
// component and a global (gshare) component.
type Tournament struct {
	local   *Local
	global  *Gshare
	chooser []counter // >=2: trust global, <2: trust local
	mask    uint64
}

// NewTournament returns the default hybrid predictor sized like a
// mid-2010s high-end core: 4K-entry components and chooser.
func NewTournament() *Tournament {
	return NewTournamentSized(4096, 12)
}

// NewTournamentSized returns a hybrid predictor with the given component
// table size and history length.
func NewTournamentSized(entries int, histLen uint) *Tournament {
	entries = ceilPow2(entries)
	return pad.New(Tournament{
		local:   NewLocal(entries, histLen),
		global:  NewGshare(entries, histLen),
		chooser: pad.Slice[counter](entries),
		mask:    uint64(entries - 1),
	})
}

// Name implements Predictor.
func (t *Tournament) Name() string { return "hybrid local/global" }

// TableBytes returns the host memory the predictor's tables hold.
func (t *Tournament) TableBytes() int {
	return len(t.chooser) + len(t.global.table) + len(t.local.counters) + 2*len(t.local.histories)
}

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint64) bool {
	if t.chooser[hashPC(pc)&t.mask].taken() {
		return t.global.Predict(pc)
	}
	return t.local.Predict(pc)
}

// Update implements Predictor: Step's training, without its verdict.
func (t *Tournament) Update(pc uint64, taken bool) { t.Step(pc, taken) }

// Step is Predict then Update with the PC hashed and each index computed
// once; it reports whether the prediction was correct. Nothing in it
// branches on taken or on a counter: the prediction is a select on the
// chooser's bit and every counter moves by a table lookup.
func (t *Tournament) Step(pc uint64, taken bool) (correct bool) {
	l, g, h := t.local, t.global, hashPC(pc)
	ci, hi := h&t.mask, h&l.histMask
	li, gi := l.pattern(hi), g.idx(h)
	tk := b2u(taken)
	lc, gc, cc := l.counters[li], g.table[gi], t.chooser[ci]
	lp, gp := uint64(lc>>1), uint64(gc>>1)
	predicted := lp ^ (lp^gp)&uint64(cc>>1)
	// The chooser trains only when the components disagree, toward the one
	// that was right.
	t.chooser[ci] = chooserNext[((lp^gp)<<3|(gp^tk^1)<<2|uint64(cc))&15]
	l.counters[li] = lc.update(taken)
	g.table[gi] = gc.update(taken)
	l.histories[hi] = l.histories[hi]<<1 | uint16(tk)
	g.history = g.history<<1 | tk
	return predicted == tk
}

// Stats tracks prediction accuracy for one core.
type Stats struct {
	Branches    uint64
	Mispredicts uint64
}

// MispredictRate returns mispredictions per branch, or 0 with no branches.
func (s *Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// Record runs one branch through p, updating stats, and reports whether the
// branch was mispredicted.
func (s *Stats) Record(p Predictor, pc uint64, taken bool) bool {
	pred := p.Predict(pc)
	p.Update(pc, taken)
	s.Branches++
	if pred != taken {
		s.Mispredicts++
		return true
	}
	return false
}

func ceilPow2(n int) int {
	if n < 2 {
		return 2
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
