package trace

import (
	"math"
	"testing"

	"scalesim/internal/xrand"
)

// TestSkipALUMatchesNextKind holds the bulk ALU skip to the walk it shortens:
// on every suite profile, a generator advanced by SkipALU under random caps
// (0 included) and one advanced by NextKind alone, each making the draws its
// kinds announce, agree on every kind, slot and draw. SkipALU retires only
// instructions NextKind would have called ALU, never more than its cap, and
// stops short of its cap only at a drawing instruction.
func TestSkipALUMatchesNextKind(t *testing.T) {
	const instrs = 100_000
	rng := xrand.New(1)
	for _, p := range Suite() {
		ref, err := NewGenerator(p, GenOptions{Instance: 3, CapacityScale: 16, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		fast, _ := NewGenerator(p, GenOptions{Instance: 3, CapacityScale: 16, Seed: 1})
		for n := 0; n < instrs; n++ {
			limit := rng.Intn(40)
			skipped := fast.SkipALU(limit)
			if skipped > limit {
				t.Fatalf("%s instruction %d: SkipALU(%d) retired %d", p.Name, n, limit, skipped)
			}
			for i := 0; i < skipped; i++ {
				if kind := ref.NextKind(); kind != OpALU {
					t.Fatalf("%s instruction %d: SkipALU(%d) retired a %v", p.Name, n+i, limit, kind)
				}
			}
			n += skipped
			want, got := ref.NextKind(), fast.NextKind()
			if got != want || fast.slot != ref.slot {
				t.Fatalf("%s instruction %d: kind %v at slot %d, NextKind walk %v at %d", p.Name, n, got, fast.slot, want, ref.slot)
			}
			if skipped < limit && want == OpALU {
				t.Fatalf("%s instruction %d: SkipALU(%d) stopped after %d before an ALU instruction", p.Name, n, limit, skipped)
			}
			switch want {
			case OpLoad, OpStore:
				wa, wd := ref.NextMem(want == OpStore)
				if ga, gd := fast.NextMem(want == OpStore); ga != wa || gd != wd {
					t.Fatalf("%s instruction %d: NextMem %#x/%v, NextKind walk %#x/%v", p.Name, n, ga, gd, wa, wd)
				}
			case OpBranch:
				wpc, wt := ref.NextBranch()
				if gpc, gt := fast.NextBranch(); gpc != wpc || gt != wt {
					t.Fatalf("%s instruction %d: NextBranch %#x/%v, NextKind walk %#x/%v", p.Name, n, gpc, gt, wpc, wt)
				}
			}
		}
	}
}

// refPick is NextMem's region pick as it was before pickRegion, verbatim:
// the float comparison against a running maximum.
func refPick(fracs, acc []float64) int {
	best, bestV := 0, -1.0
	for i, frac := range fracs {
		acc[i] += frac
		if acc[i] > bestV {
			bestV = acc[i]
			best = i
		}
	}
	acc[best] -= 1
	return best
}

// TestRegionPickMatchesFloatLoop holds pickRegion, with NextMem's debit, to
// refPick: the same region and the same accumulator bits on each of 10⁵
// picks, for every suite profile's fractions and for vectors of 1–7 regions
// with zeros, −0, exact ties, tiny fractions and sums at both ends of the
// tolerance Validate admits — where the accumulators drift below zero and
// the order of negative keys decides.
func TestRegionPickMatchesFloatLoop(t *testing.T) {
	third := 1.0 / 3
	vectors := [][]float64{
		{1}, {0.5, 0.5}, {third, third, third}, {0.25, 0.25, 0.25, 0.25},
		{0, 1}, {1, 0}, {math.Copysign(0, -1), 1}, {0.5, math.Copysign(0, -1), 0.5},
		{1e-300, 1}, {5e-324, 0.5, 0.5}, {0.1, 0.2, 0.3, 0.4}, {1e-9, 0.5 - 1e-9, 0.5},
		{0.4995, 0.4995}, {0.5005, 0.5005}, {third * 0.999, third * 0.999, third * 0.999},
	}
	for _, p := range Suite() {
		fracs := make([]float64, len(p.Regions))
		for i, r := range p.Regions {
			fracs[i] = r.Frac
		}
		vectors = append(vectors, fracs)
	}
	rng := xrand.New(7)
	for len(vectors) < 200 {
		fracs, sum := make([]float64, 1+rng.Intn(7)), 0.0
		for i := range fracs {
			switch rng.Intn(6) {
			case 0: // zero
			case 1:
				fracs[i] = math.Copysign(0, -1)
			case 2:
				fracs[i] = 1e-6 * rng.Float64()
			default:
				fracs[i] = rng.Float64()
			}
			sum += fracs[i]
		}
		if sum == 0 {
			continue
		}
		scale := []float64{0.999, 1, 1.001}[rng.Intn(3)] / sum
		for i := range fracs {
			fracs[i] *= scale
		}
		vectors = append(vectors, fracs)
	}
	for _, fracs := range vectors {
		want, got := make([]float64, len(fracs)), make([]float64, len(fracs))
		for n := 0; n < 100_000; n++ {
			w := refPick(fracs, want)
			g := pickRegion(fracs, got)
			got[g] -= 1
			if g != w {
				t.Fatalf("fracs %v pick %d: region %d, float loop %d (accumulators %v)", fracs, n, g, w, want)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("fracs %v pick %d: accumulator %d is %v, float loop %v", fracs, n, i, got[i], want[i])
				}
			}
		}
	}
}
