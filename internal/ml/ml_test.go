package ml

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"scalesim/internal/xrand"
)

// synth generates a noisy nonlinear regression problem resembling the
// extrapolation task: y = f(IPC, BW, sumBW) with interaction terms.
func synth(n int, seed uint64) (X [][]float64, y []float64) {
	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		ipc := 0.1 + 1.9*rng.Float64()
		bw := rng.Float64()
		co := 3 * rng.Float64()
		target := ipc / (1 + 0.8*bw*co) * (1 - 0.1*math.Tanh(co-1.5))
		X = append(X, []float64{ipc, bw, co})
		y = append(y, target+0.01*rng.NormFloat64())
	}
	return X, y
}

func regressors() []Regressor {
	return []Regressor{
		&DecisionTree{},
		&RandomForest{Trees: 50},
		&SVR{},
	}
}

// mapeOf is the mean absolute percentage error of pred against actual.
func mapeOf(pred, actual []float64) float64 {
	sum := 0.0
	for i := range pred {
		sum += math.Abs(pred[i]-actual[i]) / math.Abs(actual[i])
	}
	return sum / float64(len(pred))
}

func TestValidateRejectsBadInput(t *testing.T) {
	for _, r := range regressors() {
		if err := r.Fit(nil, nil); err == nil {
			t.Errorf("%s: empty training set accepted", r.Name())
		}
		if err := r.Fit([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
			t.Errorf("%s: mismatched lengths accepted", r.Name())
		}
		if err := r.Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
			t.Errorf("%s: ragged rows accepted", r.Name())
		}
		if err := r.Fit([][]float64{{math.NaN()}}, []float64{1}); err == nil {
			t.Errorf("%s: NaN feature accepted", r.Name())
		}
		if err := r.Fit([][]float64{{1}}, []float64{math.Inf(1)}); err == nil {
			t.Errorf("%s: Inf target accepted", r.Name())
		}
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	for _, r := range regressors() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Predict before Fit did not panic", r.Name())
				}
			}()
			r.Predict([]float64{1, 2, 3})
		}()
	}
}

func TestFitsTrainingData(t *testing.T) {
	X, y := synth(120, 3)
	for _, r := range regressors() {
		if err := r.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		pred := make([]float64, len(y))
		for i := range X {
			pred[i] = r.Predict(X[i])
		}
		if mape := mapeOf(pred, y); mape > 0.15 {
			t.Errorf("%s: training MAPE %.3f, want <= 0.15", r.Name(), mape)
		}
	}
}

func TestGeneralisation(t *testing.T) {
	Xtr, ytr := synth(200, 5)
	Xte, yte := synth(60, 99)
	for _, r := range regressors() {
		if err := r.Fit(Xtr, ytr); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		pred := make([]float64, len(yte))
		for i := range Xte {
			pred[i] = r.Predict(Xte[i])
		}
		if mape := mapeOf(pred, yte); mape > 0.25 {
			t.Errorf("%s: test MAPE %.3f, want <= 0.25", r.Name(), mape)
		}
	}
}

func TestSmallTrainingSet(t *testing.T) {
	// The homogeneous protocol trains on only 28 points; estimators must
	// remain usable there.
	X, y := synth(28, 7)
	Xte, yte := synth(20, 123)
	for _, r := range regressors() {
		if err := r.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		pred := make([]float64, len(yte))
		for i := range Xte {
			pred[i] = r.Predict(Xte[i])
		}
		if mape := mapeOf(pred, yte); mape > 0.5 {
			t.Errorf("%s: 28-sample test MAPE %.3f, want <= 0.5", r.Name(), mape)
		}
	}
}

func TestConstantTarget(t *testing.T) {
	X, _ := synth(40, 9)
	y := make([]float64, len(X))
	for i := range y {
		y[i] = 0.7
	}
	for _, r := range regressors() {
		if err := r.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if p := r.Predict(X[3]); math.Abs(p-0.7) > 1e-6 {
			t.Errorf("%s: constant-target prediction %.4f, want 0.7", r.Name(), p)
		}
	}
}

func TestDeterministicFit(t *testing.T) {
	X, y := synth(100, 11)
	probe := []float64{1.0, 0.5, 1.5}
	for _, mk := range []func() Regressor{
		func() Regressor { return &DecisionTree{} },
		func() Regressor { return &RandomForest{Trees: 30, Seed: 4} },
		func() Regressor { return &SVR{} },
	} {
		a, b := mk(), mk()
		if err := a.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if a.Predict(probe) != b.Predict(probe) {
			t.Errorf("%s: refit changed prediction", a.Name())
		}
	}
}

func TestTreeStructure(t *testing.T) {
	X, y := synth(200, 13)
	tr := &DecisionTree{}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// walk reads the subtree at arena index i and returns its depth, its
	// leaf count and the index just past it: a split's left subtree starts
	// at i+1 and must end where its right child starts.
	var walk func(i int) (depth, leaves, end int)
	walk = func(i int) (int, int, int) {
		n := tr.nodes[i]
		if n.feature == leaf {
			return 0, 1, i + 1
		}
		if n.feature < 0 || int(n.feature) >= tr.d {
			t.Fatalf("node %d splits on feature %d of %d", i, n.feature, tr.d)
		}
		ld, ll, lend := walk(i + 1)
		if lend != int(n.right) {
			t.Fatalf("node %d: left subtree ends at %d, right child at %d", i, lend, n.right)
		}
		rd, rl, rend := walk(lend)
		return max(ld, rd) + 1, ll + rl, rend
	}
	depth, leaves, end := walk(0)
	if end != len(tr.nodes) {
		t.Errorf("the root's subtree holds %d of the arena's %d nodes", end, len(tr.nodes))
	}
	if depth > treeMaxDepth {
		t.Errorf("depth %d exceeds treeMaxDepth %d", depth, treeMaxDepth)
	}
	if leaves < 2 || leaves > len(y)/treeMinLeaf {
		t.Errorf("leaves %d outside [2, %d] for %d samples", leaves, len(y)/treeMinLeaf, len(y))
	}
}

// WriteCanonical writes the fitted tree as RandomForest.WriteCanonical writes
// each of its trees; the tree goldens hash it. An unfitted tree writes
// nothing.
func (t *DecisionTree) WriteCanonical(w io.Writer) {
	if len(t.nodes) > 0 {
		writeTree(w, t.nodes)
	}
}

// TestTreeNodeHoldsNoPointer pins why a node is an index arena: a node with
// no pointer is an allocation the collector never scans, and a 100-tree
// forest over the 7 rows the figures fit takes its nodes in one allocation
// below Go's 32 KiB small-object limit: a tree over 7 rows has at most 3
// leaves and 5 nodes (48-byte nodes with two child pointers, 7 a tree, made
// it 33,600 B, a large object zeroed and scanned per fit).
func TestTreeNodeHoldsNoPointer(t *testing.T) {
	var pointers func(reflect.Type) bool
	pointers = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		case reflect.Array:
			return pointers(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if pointers(ty.Field(i).Type) {
					return true
				}
			}
			return false
		}
		return true
	}
	if ty := reflect.TypeOf(treeNode{}); pointers(ty) {
		t.Fatalf("%v holds a pointer", ty)
	}
	X, y := synth(7, 1)
	f := &RandomForest{Trees: 100}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if bytes := len(f.nodes) * int(reflect.TypeOf(treeNode{}).Size()); bytes != 100*5*16 || bytes >= 32<<10 {
		t.Errorf("a 100-tree forest on 7 rows allocates %d B of nodes; want 100 trees x 5 nodes x 16 B = 8,000 B, below 32 KiB", bytes)
	}
}

func TestTreeStepFunction(t *testing.T) {
	// A tree should represent an axis-aligned step exactly.
	var X [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		v := float64(i) / 50
		X = append(X, []float64{v})
		if v < 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 2)
		}
	}
	tr := &DecisionTree{}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if p := tr.Predict([]float64{0.2}); p != 1 {
		t.Errorf("step low side = %v, want 1", p)
	}
	if p := tr.Predict([]float64{0.8}); p != 2 {
		t.Errorf("step high side = %v, want 2", p)
	}
}

func TestForestSmoothsTree(t *testing.T) {
	// On noisy data, the forest's test error should not exceed a single
	// unpruned tree's by much; typically it is lower.
	Xtr, ytr := synth(150, 17)
	Xte, yte := synth(80, 171)
	tree := &DecisionTree{}
	forest := &RandomForest{Trees: 80, Seed: 2}
	if err := tree.Fit(Xtr, ytr); err != nil {
		t.Fatal(err)
	}
	if err := forest.Fit(Xtr, ytr); err != nil {
		t.Fatal(err)
	}
	mape := func(r Regressor) float64 {
		pred := make([]float64, len(yte))
		for i := range Xte {
			pred[i] = r.Predict(Xte[i])
		}
		return mapeOf(pred, yte)
	}
	tm, fm := mape(tree), mape(forest)
	if fm > tm*1.2 {
		t.Errorf("forest MAPE %.3f much worse than tree MAPE %.3f", fm, tm)
	}
	if forest.trees != 80 {
		t.Errorf("forest size %d, want 80", forest.trees)
	}
}

func TestSVRSmoothNonlinearFit(t *testing.T) {
	// SVR with RBF must fit a smooth nonlinearity better than a linear
	// baseline would: check it tracks y = sin shape.
	var X [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		v := float64(i) / 60 * 3
		X = append(X, []float64{v})
		y = append(y, math.Sin(v))
	}
	s := &SVR{}
	if err := s.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range X {
		if e := math.Abs(s.Predict(X[i]) - y[i]); e > worst {
			worst = e
		}
	}
	if worst > 0.15 {
		t.Errorf("SVR worst-case error %.3f on sin fit, want <= 0.15", worst)
	}
}

func TestScaler(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s, err := FitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean[0] != 3 || s.Mean[1] != 10 {
		t.Fatalf("means %v, want [3 10]", s.Mean)
	}
	out := s.TransformAll(X)
	// Column 0: mean 0, unit variance; column 1 constant -> all zeros.
	sum := 0.0
	for _, r := range out {
		sum += r[0]
		if r[1] != 0 {
			t.Fatalf("constant column not centred: %v", r[1])
		}
	}
	if math.Abs(sum) > 1e-12 {
		t.Fatalf("scaled column mean %v != 0", sum)
	}
	if _, err := FitScaler(nil); err == nil {
		t.Fatal("empty scaler input accepted")
	}
}

func TestScalerRoundTripProperty(t *testing.T) {
	rng := xrand.New(23)
	X, _ := synth(50, 29)
	s, err := FitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	// Property: transform is affine and invertible for non-constant cols.
	check := func(i uint8) bool {
		row := X[int(i)%len(X)]
		tr := s.Transform(row)
		for j := range tr {
			back := tr[j]*s.Scale[j] + s.Mean[j]
			if math.Abs(back-row[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTransformCheckedDimension pins the scaler shape contract: a
// dimension-mismatched vector yields ErrDimension from the checked form
// and a diagnostic panic (never a silent mis-scale) from Transform.
func TestTransformCheckedDimension(t *testing.T) {
	s, err := FitScaler([][]float64{{1, 2, 3}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TransformChecked([]float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("short vector: err = %v, want ErrDimension", err)
	}
	if _, err := s.TransformChecked([]float64{1, 2, 3, 4}); !errors.Is(err, ErrDimension) {
		t.Errorf("long vector: err = %v, want ErrDimension", err)
	}
	if out, err := s.TransformChecked([]float64{2, 3, 4}); err != nil || len(out) != 3 {
		t.Errorf("matched vector: (%v, %v), want 3 values and no error", out, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Transform with mismatched dimension did not panic")
		}
	}()
	s.Transform([]float64{1})
}

// TestPredictStats pins the forest's uncertainty estimate: the mean must
// equal Predict, a constant-target fit must report zero disagreement, and
// extrapolating far outside the training range must disagree more than
// interpolating inside it.
func TestPredictStats(t *testing.T) {
	X, y := synth(160, 7)
	f := &RandomForest{Trees: 50}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	x := []float64{1.0, 0.5, 1.5}
	mean, std := f.PredictStats(x)
	if mean != f.Predict(x) {
		t.Errorf("PredictStats mean %v != Predict %v", mean, f.Predict(x))
	}
	if std < 0 || math.IsNaN(std) {
		t.Errorf("std = %v, want finite and non-negative", std)
	}

	cf := &RandomForest{Trees: 20}
	cX := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
	cy := []float64{2, 2, 2, 2, 2, 2, 2, 2}
	if err := cf.Fit(cX, cy); err != nil {
		t.Fatal(err)
	}
	if m, s := cf.PredictStats([]float64{4.5}); m != 2 || s != 0 {
		t.Errorf("constant fit: PredictStats = (%v, %v), want (2, 0)", m, s)
	}
}

// TestWriteCanonicalStable pins the model fingerprint substrate: two
// forests fitted identically encode byte-identically, and a different
// seed encodes differently.
func TestWriteCanonicalStable(t *testing.T) {
	X, y := synth(80, 3)
	enc := func(seed uint64) string {
		f := &RandomForest{Trees: 10, Seed: seed}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		f.WriteCanonical(&b)
		return b.String()
	}
	if enc(1) != enc(1) {
		t.Error("identical fits produced different canonical encodings")
	}
	if enc(1) == enc(2) {
		t.Error("different seeds produced identical canonical encodings")
	}
}

// TestFinite pins the serve-time non-finite gate helper.
func TestFinite(t *testing.T) {
	if !Finite([]float64{0, -1, 2.5}) {
		t.Error("finite vector reported non-finite")
	}
	for _, bad := range [][]float64{{math.NaN()}, {1, math.Inf(1)}, {math.Inf(-1), 0}} {
		if Finite(bad) {
			t.Errorf("Finite(%v) = true, want false", bad)
		}
	}
	if !Finite(nil) {
		t.Error("empty vector should be trivially finite")
	}
}

// benchmarkFit times fit on the training-set shapes the figures send the
// estimators: 7 rows (subset runs) and 28 rows (the full suite's folds) at
// d = 1 (IPC-only inputs) and d = 3, and the heterogeneous protocol's 320
// rows.
func benchmarkFit(b *testing.B, fit func(X [][]float64, y []float64) error) {
	for _, shape := range []struct{ n, d int }{{7, 1}, {7, 3}, {28, 1}, {28, 3}, {320, 3}} {
		b.Run(fmt.Sprintf("n%d_d%d", shape.n, shape.d), func(b *testing.B) {
			X, y := synth(shape.n, 1)
			for i := range X {
				X[i] = X[i][:shape.d]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fit(X, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSVRFit(b *testing.B) {
	benchmarkFit(b, func(X [][]float64, y []float64) error { return (&SVR{}).Fit(X, y) })
}

func BenchmarkForestFit(b *testing.B) {
	benchmarkFit(b, func(X [][]float64, y []float64) error { return (&RandomForest{Trees: 100}).Fit(X, y) })
}

// TestForestFitAllocs holds a forest fit to allocating per forest, not per
// tree: every tree shares one scratch and one node arena, so 10 and 100
// trees over the 7x3 training sets the figures send cost the same count.
func TestForestFitAllocs(t *testing.T) {
	X, y := synth(7, 1)
	allocs := func(trees int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := (&RandomForest{Trees: trees}).Fit(X, y); err != nil {
				t.Fatal(err)
			}
		})
	}
	if ten, hundred := allocs(10), allocs(100); ten != hundred || hundred > 16 {
		t.Errorf("RandomForest.Fit: %.0f allocs with 10 trees, %.0f with 100; want equal and <= 16", ten, hundred)
	}
}

func TestTunedSVRSelectsAndFits(t *testing.T) {
	X, y := synth(150, 31)
	m := &TunedSVR{}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if m.BestC == 0 || m.BestGam == 0 {
		t.Fatalf("no hyperparameters selected: C=%v gamma=%v", m.BestC, m.BestGam)
	}
	pred := make([]float64, len(y))
	for i := range X {
		pred[i] = m.Predict(X[i])
	}
	if mape := mapeOf(pred, y); mape > 0.15 {
		t.Fatalf("tuned SVR training MAPE %.3f", mape)
	}
}

func TestTunedSVRDeterministic(t *testing.T) {
	X, y := synth(80, 33)
	a, b := &TunedSVR{}, &TunedSVR{}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if a.BestC != b.BestC || a.BestGam != b.BestGam {
		t.Fatal("tuned SVR selection not deterministic")
	}
	probe := []float64{1, 0.5, 1.5}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("tuned SVR prediction not deterministic")
	}
}

func TestTunedSVRTinyTrainingSet(t *testing.T) {
	// Degenerate case: fewer samples than folds.
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{1, 2, 3}
	m := &TunedSVR{}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{2}); math.IsNaN(p) {
		t.Fatal("NaN prediction")
	}
}

func TestTunedSVRRejectsBadInput(t *testing.T) {
	m := &TunedSVR{}
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Predict before Fit did not panic")
		}
	}()
	(&TunedSVR{}).Predict([]float64{1})
}

func TestTunedSVRFoldsHoldOutGroups(t *testing.T) {
	// Six applications of ten rows each, interleaved as mixes interleave
	// them: every application's rows must land in one fold, and every
	// fold must hold one.
	var X [][]float64
	for r := 0; r < 10; r++ {
		for app := 0; app < 6; app++ {
			X = append(X, []float64{float64(app) + 0.5, float64(r)})
		}
	}
	assign, fold := groupFolds(X), map[float64]int{}
	seen := make([]bool, tunedFolds)
	for i, row := range X {
		if f, ok := fold[row[0]]; ok && f != assign[i] {
			t.Fatalf("application %v split across folds %d and %d", row[0], f, assign[i])
		}
		fold[row[0]] = assign[i]
		seen[assign[i]] = true
	}
	for f, ok := range seen {
		if !ok {
			t.Errorf("fold %d holds no application", f)
		}
	}
	// Distinct first features fold row-wise.
	X, _ = synth(40, 35)
	for i, f := range groupFolds(X) {
		if f != (i*7)%tunedFolds {
			t.Fatalf("row %d in fold %d, want %d", i, f, (i*7)%tunedFolds)
		}
	}
}
