package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"scalesim"
)

// methodology-cold and methodology-warm regenerate five of the paper's
// figures on an eight-benchmark subset: 48 simulations of 1 to 32 cores.
//
// cold starts every operation from an empty store, so the simulator does
// the work — on its serial epoch path (two job-level workers leave one core
// worker each), on small machines, with store writes. A gain on the
// parallel epoch path must not cost this workload.
//
// warm re-opens a store a cold pass filled during set-up: zero simulations,
// 48 disk reads, and then internal/ml, fit and scalemodel evaluation do
// most of the work. It reads beside cold's writes.

var methodologySuite = []string{"exchange2", "povray", "gcc", "xz", "omnetpp", "fotonik3d", "mcf", "lbm"}

// methodologySims is the number of distinct simulations the five figures
// need on the suite: 8 benchmarks on 1, 2, 4, 8, 16 and 32 cores.
const methodologySims = 48

// figures is one regeneration: the rendered text of the five figures and
// the SVM-log leave-one-out error of Fig. 4.
type figures struct {
	text       string
	predErrPct float64
	runs, disk int
	collect    time.Duration // the first Fig. 4 call: collection or loading
	evaluate   time.Duration // everything after it, on memoized data
}

// regenerate runs the pipeline over the store at dir: a fresh Experiments,
// two job-level workers, the five figures, Close.
func regenerate(tr *tracer, req int, opts scalesim.SimOptions, suite []string, dir string) (_ *figures, err error) {
	ex, err := scalesim.NewExperimentsSubset(opts, suite...)
	if err != nil {
		return nil, err
	}
	ex.SetWorkers(2)
	if err := ex.SetStore(dir); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := ex.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing experiment store: %w", cerr)
		}
	}()

	out := &figures{}
	var text strings.Builder
	t0 := time.Now()
	sp := tr.begin("scalemodel.collect", 0, req)
	fig4, err := ex.Fig4Homogeneous()
	tr.end(sp, "")
	if err != nil {
		return nil, err
	}
	out.collect = time.Since(t0)
	text.WriteString(fig4.String())
	for _, m := range fig4.Methods {
		if m.Method == "SVM-log" {
			out.predErrPct = 100 * m.Mean
		}
	}
	sp = tr.begin("scalemodel.evaluate", 0, req)
	for _, fig := range []func() (*scalesim.FigureResult, error){
		ex.Fig9RegressionForms, ex.Fig10Inputs, ex.Fig11ScaleModelCount, ex.Fig12Bandwidth,
	} {
		res, err := fig()
		if err != nil {
			tr.end(sp, "")
			return nil, err
		}
		text.WriteString(res.String())
	}
	tr.end(sp, "")
	out.evaluate = time.Since(t0) - out.collect
	out.text, out.runs, out.disk = text.String(), ex.Runs(), ex.DiskHits()
	return out, nil
}

// storedResults reads every artifact of a store in path order.
func storedResults(dir string) ([]*scalesim.SimResult, error) {
	var out []*scalesim.SimResult
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		res, _, err := scalesim.ReadArtifact(path)
		if err != nil {
			return err
		}
		out = append(out, res)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reading store artifacts: %w", err)
	}
	return out, nil
}

// methodology is either workload; warm says which.
type methodology struct {
	e    *env
	warm bool
	ops  int
	// dir is the filled store: set-up's cold pass for warm, the last timed
	// operation's store for cold.
	dir string
	ref *figures // the first regeneration; every other must render the same text
}

func setupMethodologyCold(ctx context.Context, e *env) (instance, error) {
	// Warm-up: a cold pass over a three-benchmark subset at a quarter of
	// the budget, so the first timed operation does not pay for a cold heap.
	dir, err := e.mkTemp("methodology-warmup")
	if err != nil {
		return nil, err
	}
	opts := e.cfg.Sim
	opts.Instructions, opts.Warmup = opts.Instructions/4, opts.Warmup/4
	_, err = regenerate(nil, 0, opts, methodologySuite[:3], dir)
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return &methodology{e: e, ops: e.ops(2, 2)}, ctx.Err()
}

func setupMethodologyWarm(ctx context.Context, e *env) (instance, error) {
	dir, err := e.mkTemp("methodology-store")
	if err != nil {
		return nil, err
	}
	m := &methodology{e: e, warm: true, ops: e.ops(145, 2), dir: dir}
	if m.ref, err = regenerate(nil, 0, e.cfg.Sim, methodologySuite, dir); err == nil && m.ref.runs != methodologySims {
		err = fmt.Errorf("cold pass simulated %d design points, want %d", m.ref.runs, methodologySims)
	}
	if err == nil {
		_, err = regenerate(nil, 0, e.cfg.Sim, methodologySuite, dir) // warm-up
	}
	if err != nil {
		return nil, fmt.Errorf("filling the store: %w", err) // run sweeps the temp root
	}
	return m, ctx.Err()
}

func (m *methodology) measure(ctx context.Context, p *pass, tr *tracer) error {
	var collect, evaluate []float64
	start := time.Now()
	for op := 0; op < m.ops; op++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		dir := m.dir
		if !m.warm {
			var err error
			if dir, err = m.e.mkTemp("methodology-store"); err != nil {
				return err
			}
		}
		t0 := time.Now()
		figs, err := regenerate(tr, op+1, m.e.cfg.Sim, methodologySuite, dir)
		p.lat = append(p.lat, float64(time.Since(t0))/float64(time.Millisecond))
		if !m.warm {
			// Keep the newest store for verify; drop the one before it.
			if m.dir != "" {
				if err := os.RemoveAll(m.dir); err != nil {
					return fmt.Errorf("removing store: %w", err)
				}
			}
			m.dir = dir
		}
		if err != nil {
			p.fail("op %d: %v", op, err)
			continue
		}
		collect = append(collect, figs.collect.Seconds())
		evaluate = append(evaluate, float64(figs.evaluate)/float64(time.Millisecond))
		m.check(p, op, figs, m.warm)
	}
	p.wall = time.Since(start)
	p.layer["scalemodel.collect_s"] = median(collect)
	p.layer["scalemodel.evaluate_ms"] = median(evaluate)
	return nil
}

// check holds one regeneration to the reference text and to the tier it
// must have been served from.
func (m *methodology) check(p *pass, op int, figs *figures, warm bool) {
	wantRuns, wantDisk := methodologySims, 0
	if warm {
		wantRuns, wantDisk = 0, methodologySims
	}
	if figs.runs != wantRuns || figs.disk != wantDisk {
		p.fail("op %d: %d simulations and %d disk hits, want %d and %d", op, figs.runs, figs.disk, wantRuns, wantDisk)
	}
	if m.ref == nil {
		m.ref = figs
	}
	if figs.text != m.ref.text {
		p.fail("op %d: rendered figures differ from the first regeneration", op)
	}
	if !(figs.predErrPct > 0) {
		p.fail("op %d: SVM-log error %v is not positive", op, figs.predErrPct)
	}
}

// verify reads the cold store back warm (cold and warm must render the
// same bytes), and states the digest, the instructions behind one
// regeneration and the prediction error.
func (m *methodology) verify(ctx context.Context, p *pass) error {
	if m.ref == nil || m.dir == "" {
		return nil // every operation failed; measure already said so
	}
	if !m.warm {
		figs, err := regenerate(nil, 0, m.e.cfg.Sim, methodologySuite, m.dir)
		if err != nil {
			return fmt.Errorf("warm read-back: %w", err)
		}
		m.check(p, len(p.lat), figs, true)
	}
	results, err := storedResults(m.dir)
	if err != nil {
		return err
	}
	if len(results) != methodologySims {
		p.fail("store holds %d artifacts, want %d", len(results), methodologySims)
	}
	d := newResultDigest()
	var perOp uint64
	for i, res := range results {
		d.add(fmt.Sprintf("artifact%d", i), res)
		perOp += instructions(res)
	}
	d.text("figures", m.ref.text)
	p.digest = d.sum()
	script := newResultDigest() // the pipeline's input is fixed: the suite
	script.text("suite", strings.Join(methodologySuite, ","))
	p.script = script.sum()
	p.instr = perOp * uint64(len(p.lat))
	p.predErrPct = m.ref.predErrPct
	p.layer["scalemodel.pred_err_pct"] = p.predErrPct
	p.layer["runner.jobs"] = float64(methodologySims * len(p.lat))
	if m.warm {
		p.layer["runner.disk_hits"] = p.layer["runner.jobs"]
		p.layer["runner.hit_ratio"] = 1
	} else {
		p.layer["runner.unique_runs"] = p.layer["runner.jobs"]
	}
	return ctx.Err()
}

func (m *methodology) close() error {
	if m.dir == "" {
		return nil
	}
	if err := os.RemoveAll(m.dir); err != nil {
		return fmt.Errorf("removing store: %w", err)
	}
	return nil
}
