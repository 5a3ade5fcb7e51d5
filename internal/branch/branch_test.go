package branch

import (
	"slices"
	"testing"

	"scalesim/internal/xrand"
)

// train runs a synthetic branch workload through p and returns the
// misprediction rate over the second half (after warmup).
func train(p Predictor, gen func(i int) (pc uint64, taken bool), n int) float64 {
	var s Stats
	warm := n / 2
	for i := 0; i < n; i++ {
		pc, taken := gen(i)
		if i < warm {
			pred := p.Predict(pc)
			p.Update(pc, taken)
			_ = pred
			continue
		}
		s.Record(p, pc, taken)
	}
	return s.MispredictRate()
}

// newBimodal returns the baseline the history-based predictors are held
// against: gshare with no history bits is a PC-indexed counter table.
func newBimodal(entries int) Predictor { return NewGshare(entries, 0) }

func predictors() []Predictor {
	return []Predictor{
		newBimodal(4096),
		NewGshare(4096, 12),
		NewLocal(1024, 10),
		NewTournament(),
	}
}

func TestAlwaysTakenLearned(t *testing.T) {
	for _, p := range predictors() {
		rate := train(p, func(i int) (uint64, bool) {
			return uint64(0x1000 + (i%8)*4), true
		}, 20000)
		if rate > 0.01 {
			t.Errorf("%s: mispredict rate %.4f on always-taken, want ~0", p.Name(), rate)
		}
	}
}

func TestStronglyBiasedLearned(t *testing.T) {
	rng := xrand.New(42)
	for _, p := range predictors() {
		rate := train(p, func(i int) (uint64, bool) {
			return 0x2000, rng.Bool(0.95)
		}, 40000)
		// Best achievable is ~5% (the bias flip rate).
		if rate > 0.12 {
			t.Errorf("%s: mispredict rate %.4f on 95%%-biased branch, want <= 0.12", p.Name(), rate)
		}
	}
}

func TestPeriodicPatternLocalBeatsBimodal(t *testing.T) {
	// Period-4 pattern TTTN: a local 2-level predictor should learn it
	// perfectly; bimodal cannot (it saturates toward taken and misses the N).
	gen := func(i int) (uint64, bool) { return 0x3000, i%4 != 3 }
	local := train(NewLocal(1024, 10), gen, 40000)
	bimodal := train(newBimodal(4096), gen, 40000)
	if local > 0.01 {
		t.Errorf("local: rate %.4f on period-4 pattern, want ~0", local)
	}
	if bimodal < 0.2 {
		t.Errorf("bimodal: rate %.4f on period-4 pattern, expected >= 0.2", bimodal)
	}
}

func TestCorrelatedBranchesGshareLearns(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: global history
	// captures this, bimodal cannot.
	rng := xrand.New(7)
	lastA := false
	gen := func(i int) (uint64, bool) {
		if i%2 == 0 {
			lastA = rng.Bool(0.5)
			return 0x4000, lastA
		}
		return 0x5000, lastA
	}
	gshare := train(NewGshare(4096, 12), gen, 60000)
	bimodal := train(newBimodal(4096), gen, 60000)
	// gshare sees A's outcome in history when predicting B: B becomes
	// near-perfect, A stays 50%. Overall ~25%.
	if gshare > 0.35 {
		t.Errorf("gshare: rate %.4f on correlated pair, want <= 0.35", gshare)
	}
	if bimodal < 0.45 {
		t.Errorf("bimodal: rate %.4f on correlated pair, want ~0.5", bimodal)
	}
	if gshare >= bimodal {
		t.Errorf("gshare (%.4f) not better than bimodal (%.4f) on correlated branches", gshare, bimodal)
	}
}

func TestTournamentTracksBestComponent(t *testing.T) {
	// Mixed workload: one periodic branch (local wins) and one correlated
	// pair (global wins). The tournament should approach the best of both.
	rng := xrand.New(9)
	lastA := false
	gen := func(i int) (uint64, bool) {
		switch i % 4 {
		case 0:
			return 0x6000, (i/4)%4 != 3 // periodic
		case 1:
			lastA = rng.Bool(0.5)
			return 0x7000, lastA
		case 2:
			return 0x8000, lastA // correlated with previous
		default:
			return 0x9000, true // trivial
		}
	}
	tour := train(NewTournament(), gen, 80000)
	bimodal := train(newBimodal(4096), gen, 80000)
	if tour >= bimodal {
		t.Errorf("tournament (%.4f) not better than bimodal (%.4f) on mixed workload", tour, bimodal)
	}
	// A (pure random) contributes 25% of branches at ~50% floor => ~12.5%
	// overall floor. Allow training slack.
	if tour > 0.22 {
		t.Errorf("tournament rate %.4f, want <= 0.22 (floor ~0.125)", tour)
	}
}

func TestRandomBranchNearFifty(t *testing.T) {
	rng := xrand.New(11)
	for _, p := range predictors() {
		rate := train(p, func(i int) (uint64, bool) { return 0xa000, rng.Bool(0.5) }, 40000)
		if rate < 0.4 || rate > 0.6 {
			t.Errorf("%s: rate %.4f on random branch, want ~0.5", p.Name(), rate)
		}
	}
}

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Fatalf("counter saturated at %d, want 3", c)
	}
	if !c.taken() {
		t.Fatal("saturated counter predicts not-taken")
	}
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Fatalf("counter floored at %d, want 0", c)
	}
	if c.taken() {
		t.Fatal("floored counter predicts taken")
	}
}

// refCounterUpdate is counter.update as it was before counterNext: a 2-bit
// counter steps toward the outcome and saturates at 0 and 3.
func refCounterUpdate(c counter, taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// refChooserUpdate is the chooser's training rule as Step applied it before
// chooserNext: only when the components disagree, toward the global one if
// it was right and the local one otherwise.
func refChooserUpdate(c counter, disagree, globalRight bool) counter {
	if disagree {
		return refCounterUpdate(c, globalRight)
	}
	return c
}

// TestCounterTables holds the two transition tables to the branchy rules
// they replaced, on all 8 and 16 inputs.
func TestCounterTables(t *testing.T) {
	for c := counter(0); c < 4; c++ {
		for _, taken := range []bool{false, true} {
			if got, want := c.update(taken), refCounterUpdate(c, taken); got != want {
				t.Errorf("counter %d, taken %v: update %d, want %d", c, taken, got, want)
			}
			for _, disagree := range []bool{false, true} {
				i := b2u(disagree)<<3 | b2u(taken)<<2 | uint64(c)
				if got, want := chooserNext[i], refChooserUpdate(c, disagree, taken); got != want {
					t.Errorf("chooser %d, disagree %v, global right %v: chooserNext %d, want %d", c, disagree, taken, got, want)
				}
			}
		}
	}
}

func TestStatsZeroBranches(t *testing.T) {
	var s Stats
	if r := s.MispredictRate(); r != 0 {
		t.Fatalf("empty stats rate %v, want 0", r)
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 4096: 4096}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestDistinctPCsDontAlias(t *testing.T) {
	// Two opposite-direction branches must not destructively interfere in a
	// reasonably sized bimodal table.
	p := newBimodal(4096)
	var s Stats
	for i := 0; i < 20000; i++ {
		s.Record(p, 0xb000, true)
		s.Record(p, 0xc000, false)
	}
	if r := s.MispredictRate(); r > 0.01 {
		t.Fatalf("aliasing mispredict rate %.4f, want ~0", r)
	}
}

// refUpdate is Tournament.Update as it was before Step, verbatim: the
// chooser trained from the components' predictions, then each component's
// own Update.
func refUpdate(t *Tournament, pc uint64, taken bool) {
	lp := t.local.Predict(pc)
	gp := t.global.Predict(pc)
	// Train the chooser only when the components disagree.
	if lp != gp {
		i := hashPC(pc) & t.mask
		t.chooser[i] = t.chooser[i].update(gp == taken)
	}
	t.local.Update(pc, taken)
	t.global.Update(pc, taken)
}

// TestStepMatchesPredictUpdate holds Step to the Predict-then-Update pair it
// fuses, in its original form (refUpdate): on generated branch streams — a
// Zipf-skewed static population with per-branch biases, over tables small
// enough to alias and the default ones — every Step reports whether Predict
// was right, and every counter, history register and chooser entry stays
// equal to the pair's, as they do after Predict and Update, which is Step's
// training.
func TestStepMatchesPredictUpdate(t *testing.T) {
	rng := xrand.New(3)
	for _, size := range []struct {
		entries int
		histLen uint
	}{{16, 4}, {256, 8}, {4096, 12}} {
		for seed := uint64(0); seed < 4; seed++ {
			tournament := func() *Tournament { return NewTournamentSized(size.entries, size.histLen) }
			ref, fused, pair := tournament(), tournament(), tournament()
			statics := 1 + rng.Intn(2*size.entries)
			pcs, bias := make([]uint64, statics), make([]float64, statics)
			for i := range pcs {
				pcs[i], bias[i] = rng.Uint64(), rng.Float64()
			}
			pick := xrand.NewZipf(rng.Split(), statics, 1+rng.Float64())
			for n := 0; n < 50_000; n++ {
				b := pick.Next()
				pc, taken := pcs[b], rng.Bool(bias[b])
				want := ref.Predict(pc) == taken
				refUpdate(ref, pc, taken)
				if got := fused.Step(pc, taken); got != want {
					t.Fatalf("%d entries, seed %d, branch %d: Step says correct=%v, Predict+Update %v", size.entries, seed, n, got, want)
				}
				if got := pair.Predict(pc) == taken; got != want {
					t.Fatalf("%d entries, seed %d, branch %d: Predict says correct=%v, the original pair %v", size.entries, seed, n, got, want)
				}
				pair.Update(pc, taken)
				if n%5000 == 4999 && (!sameTables(ref, fused) || !sameTables(ref, pair)) {
					t.Fatalf("%d entries, seed %d, branch %d: tables differ from the original Predict+Update's", size.entries, seed, n)
				}
			}
		}
	}
}

// sameTables reports whether two tournaments hold equal state.
func sameTables(a, b *Tournament) bool {
	return slices.Equal(a.chooser, b.chooser) && slices.Equal(a.global.table, b.global.table) &&
		a.global.history == b.global.history && slices.Equal(a.local.counters, b.local.counters) &&
		slices.Equal(a.local.histories, b.local.histories)
}

func BenchmarkTournament(b *testing.B) {
	p := NewTournament()
	rng := xrand.New(1)
	pcs := make([]uint64, 64)
	for i := range pcs {
		pcs[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := pcs[i%64]
		p.Update(pc, p.Predict(pc) || i%3 == 0)
	}
}
