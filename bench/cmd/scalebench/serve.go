package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"scalesim"
	apiv1 "scalesim/api/v1"
	"scalesim/internal/metrics"
	"scalesim/internal/server"
	"scalesim/internal/xrand"
)

// The serving workloads run internal/server in this process, behind a
// loopback httptest listener: no `scalesim serve` child, nothing detached.
// Load is closed loop — a client sends its next request when the previous
// reply arrived, like `scalesim request` and campaign drivers do — from two
// client goroutines with one keep-alive connection each, against two
// server workers: the reference box has two CPUs.
const (
	serveClients = 2
	serveWorkers = 2

	// A script is measured in up to scriptParts equal consecutive parts (see
	// endToEnd) of at least partFloor requests each.
	scriptParts = 20
	partFloor   = 50
)

// Request classes. A class names the tier that must answer.
const (
	classPrime    = "prime"    // set-up: first touch of a key that later requests hit
	classMemory   = "memory"   // a completed design point, one job per request
	classBatch8   = "batch8"   // eight completed design points in one request
	classDisk     = "disk"     // stored by an earlier service instance, used once
	classModel    = "model"    // near the surrogate's training grid, never simulated
	classCompute  = "compute"  // far from the grid, fresh seed
	classCoalesce = "coalesce" // four identical fresh jobs in one request
)

// sourcesFor lists the tiers allowed to answer a class. Two clients may
// ask for the same completed point at once, so a hit may also report
// "coalesced".
var sourcesFor = map[string][]scalesim.ResultSource{
	classPrime:    {scalesim.SourceCompute, scalesim.SourceMemory, scalesim.SourceCoalesced},
	classMemory:   {scalesim.SourceMemory, scalesim.SourceCoalesced},
	classBatch8:   {scalesim.SourceMemory, scalesim.SourceCoalesced},
	classDisk:     {scalesim.SourceDisk},
	classModel:    {scalesim.SourceModel},
	classCompute:  {scalesim.SourceCompute},
	classCoalesce: {scalesim.SourceCompute, scalesim.SourceMemory, scalesim.SourceCoalesced},
}

// serveJob is one design point a script refers to.
type serveJob struct {
	job scalesim.CampaignJob
	key string
	// ref is the first result the server returned for the point; every
	// later answer must equal it.
	ref *scalesim.SimResult
}

// request is one scripted POST /v1/jobs: its class, the design points it
// carries and the encoded body.
type request struct {
	class string
	jobs  []int
	body  []byte
}

// serveRig is an in-process service: Service, admission server, loopback
// listener and the clients' connections. close releases all of it.
type serveRig struct {
	e       *env
	svc     *scalesim.Service
	backend *tracedBackend
	srv     *server.Server
	stop    context.CancelFunc
	hs      *httptest.Server
	clients [serveClients]*http.Client
	dir     string // durable store, when the service has one

	jobs   []serveJob
	script []request
	// checks are script positions whose answers verify re-simulates.
	checks []int
	// modelSample are the model-class design points whose served answers
	// verify compares with the simulator: the same points for every seed,
	// so the served error is comparable across seeds.
	modelSample []int
}

func newServeRig(ctx context.Context, e *env, cfg scalesim.ServiceConfig) (*serveRig, error) {
	cfg.Tuning = &scalesim.Tuning{CampaignWorkers: serveWorkers, CoreWorkers: 1}
	svc, err := scalesim.NewService(cfg)
	if err != nil {
		return nil, err
	}
	r := &serveRig{e: e, svc: svc, dir: cfg.Store}
	r.backend = &tracedBackend{Backend: server.NewServiceBackend(svc)}
	r.srv = server.New(r.backend, server.Config{Workers: serveWorkers})
	workCtx, stop := context.WithCancel(ctx)
	r.stop = stop
	r.srv.Start(workCtx)
	r.hs = httptest.NewServer(r.srv.Handler())
	for i := range r.clients {
		r.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return r, nil
}

// close stops the listener, drains the admission queue, joins the workers
// and closes the service, in that order; the store directory goes last.
func (r *serveRig) close() error {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.hs.Close()
	r.srv.Drain()
	r.stop()
	err := r.svc.Close()
	if r.dir != "" {
		if rerr := os.RemoveAll(r.dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	if err != nil {
		return fmt.Errorf("closing service: %w", err)
	}
	return nil
}

// addJob appends a 1-core design point to the job table.
func (r *serveRig) addJob(machine scalesim.MachineSpec, bench string, opts scalesim.SimOptions) (int, error) {
	job := scalesim.CampaignJob{Machine: machine, Benchmarks: []string{bench}, Options: opts}
	prep, err := r.svc.Prepare(job)
	if err != nil {
		return 0, fmt.Errorf("preparing %s: %w", bench, err)
	}
	r.jobs = append(r.jobs, serveJob{job: job, key: prep.Key()})
	return len(r.jobs) - 1, nil
}

// newRequest encodes a request for the given design points.
func (r *serveRig) newRequest(class string, jobs ...int) (request, error) {
	batch := make([]scalesim.CampaignJob, len(jobs))
	for i, j := range jobs {
		batch[i] = r.jobs[j].job
	}
	var body bytes.Buffer
	if err := apiv1.Encode(&body, apiv1.NewJobRequest("scalebench", batch)); err != nil {
		return request{}, fmt.Errorf("encoding request: %w", err)
	}
	return request{class: class, jobs: jobs, body: body.Bytes()}, nil
}

func (r *serveRig) post(ctx context.Context, c *http.Client, body []byte) (*apiv1.JobResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.hs.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if er, derr := apiv1.DecodeErrorResponse(resp.Body); derr == nil {
			return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, er.Error)
		}
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return apiv1.DecodeJobResponse(resp.Body)
}

// shard is what one client goroutine saw: its share of the pass, where it
// stood at the start of every part and at the end, and the first result of
// every design point that had no reference yet.
type shard struct {
	pass
	marks []mark
	seen  map[int]*scalesim.SimResult
}

// mark is a client's progress at one instant.
type mark struct {
	at    time.Time
	ops   int
	instr uint64
}

func (sh *shard) mark() {
	sh.marks = append(sh.marks, mark{at: time.Now(), ops: len(sh.lat), instr: sh.instr})
}

// play sends the script through the server, request i from client i mod 2,
// and records one sample per request into p. It returns early only when
// ctx ends.
func (r *serveRig) play(ctx context.Context, script []request, p *pass, tr *tracer) error {
	r.backend.tr.Store(tr)
	defer r.backend.tr.Store(nil)
	shards := make([]shard, serveClients)
	parts := min(scriptParts, max(1, len(script)/partFloor))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := &shards[c]
			sh.seen = map[int]*scalesim.SimResult{}
			for i := c; i < len(script) && ctx.Err() == nil; i += serveClients {
				for len(sh.marks) <= i*parts/len(script) {
					sh.mark() // before the client's first request of a part
				}
				r.exchange(ctx, c, i, script[i], sh, tr)
			}
			for len(sh.marks) <= parts {
				sh.mark()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return err
	}
	p.parts = make([]part, parts)
	for c := range shards {
		sh := &shards[c]
		for k := range p.parts {
			from, to := sh.marks[k], sh.marks[k+1]
			if to.ops == from.ops {
				continue
			}
			took := to.at.Sub(from.at).Seconds()
			pt := &p.parts[k]
			pt.lat = append(pt.lat, sh.lat[from.ops:to.ops]...)
			pt.rate += float64(to.ops-from.ops) / took
			pt.mips += float64(to.instr-from.instr) / took / 1e6
		}
		p.lat = append(p.lat, sh.lat...)
		p.instr += sh.instr
		p.failed += sh.failed
		p.failures = append(p.failures, sh.failures...)
		for class, sources := range sh.classes {
			for source, n := range sources {
				p.count(class, source, n)
			}
		}
		for j, res := range sh.seen {
			switch {
			case r.jobs[j].ref == nil:
				r.jobs[j].ref = res
			case !sameResult(r.jobs[j].ref, res):
				p.fail("design point %d: the two clients were served different results", j)
			}
		}
	}
	if len(p.failures) > maxFailuresKept {
		p.failures = p.failures[:maxFailuresKept]
	}
	d := newResultDigest()
	for j := range r.jobs {
		if r.jobs[j].ref != nil {
			d.add(fmt.Sprintf("job%d", j), r.jobs[j].ref)
		}
	}
	p.digest = d.sum()
	sent := newResultDigest()
	for _, rq := range script {
		sent.text(rq.class, string(rq.body))
	}
	p.script = sent.sum()
	return nil
}

// exchange sends one request and checks the reply: HTTP 200, no error
// outcome, an allowed tier for the class, the approximate marker exactly on
// model answers, a plausible IPC, and equality with the point's reference.
func (r *serveRig) exchange(ctx context.Context, client, pos int, rq request, sh *shard, tr *tracer) {
	sp := tr.begin("client.request", 0, pos+1)
	r.backend.announce(client, pos+1, sp, rq.jobs, r.jobs)
	t0 := time.Now()
	resp, err := r.post(ctx, r.clients[client], rq.body)
	sh.lat = append(sh.lat, float64(time.Since(t0))/float64(time.Millisecond))
	tr.end(sp, rq.class)
	if err != nil {
		if ctx.Err() == nil {
			sh.fail("request %d (%s): %v", pos, rq.class, err)
		}
		return
	}
	if len(resp.Outcomes) != len(rq.jobs) {
		sh.fail("request %d (%s): %d outcomes for %d jobs", pos, rq.class, len(resp.Outcomes), len(rq.jobs))
		return
	}
	problem, computes := "", 0
	for i, oc := range resp.Outcomes {
		src := scalesim.ResultSource(oc.Source)
		sh.count(rq.class, oc.Source, 1)
		allowed := false
		for _, s := range sourcesFor[rq.class] {
			allowed = allowed || s == src
		}
		if src == scalesim.SourceCompute {
			computes++
		}
		if oc.Result != nil {
			sh.instr += instructions(oc.Result)
		}
		j := rq.jobs[i]
		switch {
		case oc.Error != "":
			problem = oc.Error
		case !allowed:
			problem = fmt.Sprintf("answered by %q", oc.Source)
		case oc.Approximate != (src == scalesim.SourceModel):
			problem = fmt.Sprintf("approximate=%t from %q", oc.Approximate, oc.Source)
		case !plausible(oc.Result):
			problem = "non-positive or non-finite IPC"
		case r.jobs[j].ref != nil:
			if !sameResult(r.jobs[j].ref, oc.Result) {
				problem = "result differs from the point's first answer"
			}
		case sh.seen[j] == nil:
			sh.seen[j] = oc.Result
		case !sameResult(sh.seen[j], oc.Result):
			problem = "result differs from the point's first answer"
		}
	}
	if rq.class == classCoalesce && computes != 1 {
		problem = fmt.Sprintf("%d simulations for %d identical jobs", computes, coalesceWidth)
	}
	if problem != "" {
		sh.fail("request %d (%s): %s", pos, rq.class, problem)
	}
}

// prime plays a set-up script and turns any failure into an error. A
// non-empty class overrides the requests' own: the first touch of a key
// computes where later ones hit.
func (r *serveRig) prime(ctx context.Context, class string, script []request) error {
	if class != "" {
		script = append([]request(nil), script...)
		for i := range script {
			script[i].class = class
		}
	}
	var p pass
	if err := r.play(ctx, script, &p, nil); err != nil {
		return err
	}
	if p.failed > 0 {
		return fmt.Errorf("%d of %d set-up requests failed: %s", p.failed, len(script), p.failures[0])
	}
	return nil
}

func (r *serveRig) measure(ctx context.Context, p *pass, tr *tracer) error {
	return r.play(ctx, r.script, p, tr)
}

// verify re-simulates a fixed sample of ground-truth answers directly,
// reads /statsz (nothing may have been shed), and turns the pass's spans
// and the service's counters into layer metrics.
func (r *serveRig) verify(ctx context.Context, p *pass) error {
	for _, pos := range r.checks {
		for _, j := range r.script[pos].jobs {
			sj := r.jobs[j]
			truth, err := scalesim.SimulateContext(ctx, sj.job.Machine, sj.job.Benchmarks, sj.job.Options)
			if err != nil {
				return err
			}
			if !sameResult(sj.ref, truth) {
				p.fail("request %d (%s): served result differs from a direct simulation", pos, r.script[pos].class)
			}
		}
	}
	if err := r.modelError(ctx, p); err != nil {
		return err
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.hs.URL+"/statsz", nil)
	if err != nil {
		return err
	}
	resp, err := r.clients[0].Do(req)
	if err != nil {
		return fmt.Errorf("reading /statsz: %w", err)
	}
	stats, err := apiv1.DecodeStatsResponse(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if stats.Shed != 0 {
		p.fail("/statsz: %d requests shed", stats.Shed)
	}
	st := stats.Stats
	p.layer["server.shed"] = float64(stats.Shed)
	p.layer["server.coalesced"] = float64(st.CoalescedHits)
	p.layer["runner.jobs"] = float64(st.Jobs)
	p.layer["runner.unique_runs"] = float64(st.UniqueRuns)
	p.layer["runner.memory_hits"] = float64(st.CacheHits)
	p.layer["runner.disk_hits"] = float64(st.DiskHits)
	p.layer["runner.model_hits"] = float64(st.ModelHits)
	p.layer["runner.coalesced_hits"] = float64(st.CoalescedHits)
	p.layer["runner.hit_ratio"] = st.HitRate()
	serveLayers(p)
	return nil
}

// modelErrorSample is how many distinct model-served answers are compared
// with the simulator.
const modelErrorSample = 24

// modelError states the served error of the surrogate: the mean relative
// IPC error of the sampled model-served answers against the simulation each
// one replaced.
func (r *serveRig) modelError(ctx context.Context, p *pass) error {
	var sum float64
	n := 0
	for _, j := range r.modelSample {
		sj := r.jobs[j]
		if sj.ref == nil {
			continue // the request failed; play already said so
		}
		truth, err := scalesim.SimulateContext(ctx, sj.job.Machine, sj.job.Benchmarks, sj.job.Options)
		if err != nil {
			return err
		}
		sum += metrics.PredictionError(sj.ref.Cores[0].IPC, truth.Cores[0].IPC)
		n++
	}
	if n > 0 {
		p.approxErrPct = 100 * sum / float64(n)
		p.layer["surrogate.approx_err_pct"] = p.approxErrPct
	}
	return nil
}

// serveLayers reads the server and runner layers off a traced pass.
func serveLayers(p *pass) {
	if p.spans == nil {
		return
	}
	byID := make(map[int]span, len(p.spans))
	children := map[int][]span{} // by request
	for _, s := range p.spans {
		byID[s.ID] = s
		if s.Name != "client.request" {
			children[s.Req] = append(children[s.Req], s)
		}
	}
	var self, wait []float64
	for _, s := range p.spans {
		switch s.Name {
		case "client.request":
			self = append(self, float64(selfTime(s, children[s.Req]))/float64(time.Microsecond))
		case "backend.run":
			if prep, ok := byID[s.Parent]; ok {
				wait = append(wait, float64(s.Start-prep.End)/float64(time.Microsecond))
			}
		}
	}
	p.layer["server.self_us_p50"] = median(self)
	p.layer["server.queue_wait_us_p50"] = median(wait)
	p.layer["server.batch8_ms_p50"] = median(durations(p.spans, time.Millisecond, tagged("client.request", classBatch8)))
	p.layer["runner.run_memory_us_p50"] = median(durations(p.spans, time.Microsecond, tagged("backend.run", string(scalesim.SourceMemory))))
	p.layer["runner.run_disk_us_p50"] = median(durations(p.spans, time.Microsecond, tagged("backend.run", string(scalesim.SourceDisk))))
	p.layer["runner.run_model_us_p50"] = median(durations(p.spans, time.Microsecond, tagged("backend.run", string(scalesim.SourceModel))))
	p.layer["runner.run_compute_ms_p50"] = median(durations(p.spans, time.Millisecond, tagged("backend.run", string(scalesim.SourceCompute))))
}

// tracedBackend decorates the server's backend with spans: backend.prepare
// around Prepare, backend.run (tagged with the answering tier) around Run.
// With no tracer installed it adds nothing to either call.
type tracedBackend struct {
	server.Backend
	tr atomic.Pointer[tracer]

	// open is each client's request in flight. Prepare has no request
	// context, so it finds its request by the key it just computed; when
	// both clients have the same key in flight either owner is as good.
	mu   sync.Mutex
	open [serveClients]openRequest
}

type openRequest struct {
	req, span int
	keys      []string
}

// tracedPrepared carries the prepare span to Run.
type tracedPrepared struct {
	server.Prepared
	req, span int
}

// announce registers the request a client is about to send.
func (b *tracedBackend) announce(client, req, span int, jobs []int, table []serveJob) {
	if b.tr.Load() == nil {
		return
	}
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = table[j].key
	}
	b.mu.Lock()
	b.open[client] = openRequest{req: req, span: span, keys: keys}
	b.mu.Unlock()
}

func (b *tracedBackend) owner(key string) (req, span int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, o := range b.open {
		for _, k := range o.keys {
			if k == key {
				return o.req, o.span
			}
		}
	}
	return 0, 0
}

func (b *tracedBackend) Prepare(job scalesim.CampaignJob) (server.Prepared, error) {
	tr := b.tr.Load()
	if tr == nil {
		return b.Backend.Prepare(job)
	}
	sp := tr.begin("backend.prepare", 0, 0)
	prep, err := b.Backend.Prepare(job)
	if err != nil {
		tr.end(sp, "error")
		return nil, err
	}
	req, parent := b.owner(prep.Key())
	tr.link(sp, parent, req)
	tr.end(sp, "")
	return tracedPrepared{Prepared: prep, req: req, span: sp}, nil
}

func (b *tracedBackend) Run(ctx context.Context, p server.Prepared) scalesim.JobOutcome {
	tp, ok := p.(tracedPrepared)
	if !ok {
		return b.Backend.Run(ctx, p)
	}
	tr := b.tr.Load()
	sp := tr.begin("backend.run", tp.span, tp.req)
	oc := b.Backend.Run(ctx, tp.Prepared)
	tr.end(sp, string(oc.Source))
	return oc
}

// serve-hot: a 64-key hot set of 1-core PRS points computed in set-up;
// nine requests in ten carry one job, the tenth carries eight. Wire decode
// and encode, admission, worker hand-off, coalescing, key hashing and the
// memory tier do all the work; simulator, store and surrogate idle. It is
// the bypass workload for every simulator change.

const (
	hotKeys    = 64
	hotBatches = 64 // distinct eight-job requests, drawn once
)

func setupServeHot(ctx context.Context, e *env) (_ instance, err error) {
	r, err := newServeRig(ctx, e, scalesim.ServiceConfig{})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	rng := xrand.New(e.cfg.Seed)
	names := scalesim.BenchmarkNames()
	first := rng.Intn(len(names))
	var singles, batches []request
	for k := 0; k < hotKeys; k++ {
		j, err := r.addJob(scalesim.MachineSpec{Cores: 1}, names[(first+k)%len(names)], e.pointOptions(uint64(1+k/len(names))))
		if err != nil {
			return nil, err
		}
		rq, err := r.newRequest(classMemory, j)
		if err != nil {
			return nil, err
		}
		singles = append(singles, rq)
	}
	for b := 0; b < hotBatches; b++ {
		rq, err := r.newRequest(classBatch8, rng.Perm(hotKeys)[:8]...)
		if err != nil {
			return nil, err
		}
		batches = append(batches, rq)
	}
	// Exactly one request in ten is a batch; the shuffle spreads them over
	// both clients.
	n := e.ops(100000, 200)
	for i := 0; i < n; i++ {
		if i%10 == 9 {
			r.script = append(r.script, batches[rng.Intn(hotBatches)])
		} else {
			r.script = append(r.script, singles[rng.Intn(hotKeys)])
		}
	}
	rng.Shuffle(n, func(i, j int) { r.script[i], r.script[j] = r.script[j], r.script[i] })
	r.checks = []int{0, 1, 2, 3}

	// Set-up computes the hot set through the server, then touches every
	// key and every batch once more so the timed phase starts warm.
	if err := r.prime(ctx, classPrime, singles); err != nil {
		return nil, err
	}
	if err := r.prime(ctx, "", append(singles, batches...)); err != nil {
		return nil, err
	}
	return r, nil
}

// serve-mixed: every tier in one run. The service has a durable store and
// a surrogate trained in set-up on a 32-point grid ({mcf, gcc, xz, lbm} ×
// 8 DRAM bandwidths) and then frozen (it never refits), so which tier
// answers is a pure function of the request. Throughput is bound by the
// computes, the median is the hit path, the tail is compute plus queueing:
// a hit-path gain that slows dispatch, or the reverse, shows.

var (
	gridBenchmarks = []string{"mcf", "gcc", "xz", "lbm"}
	gridGBps       = []float64{1, 2, 3, 4, 5, 6, 7, 8}
)

// Job shares per hundred: 55 memory, 10 disk, 15 model, 12 compute and two
// four-job coalesce requests.
const (
	mixMemory, mixDisk, mixModel, mixCompute, mixCoalesce = 55, 10, 15, 12, 2

	coalesceWidth = 4
	mixedWarmups  = 4 // warm-up requests per consumable class
)

// frozenSurrogate serves anything within 0.1 scaled standard deviations of
// a grid point, however much the trees disagree, and never refits.
func frozenSurrogate() *scalesim.SurrogateConfig {
	return &scalesim.SurrogateConfig{MinTrain: len(gridBenchmarks) * len(gridGBps), VarGate: 1e9, DistGate: 0.1, RefitEvery: 1 << 30}
}

// untrained lists the suite benchmarks the grid leaves out.
func untrained() []string {
	var out []string
	for _, n := range scalesim.BenchmarkNames() {
		trained := false
		for _, g := range gridBenchmarks {
			trained = trained || g == n
		}
		if !trained {
			out = append(out, n)
		}
	}
	return out
}

func setupServeMixed(ctx context.Context, e *env) (_ instance, err error) {
	dir, err := e.mkTemp("serve-store")
	if err != nil {
		return nil, err
	}
	r, err := newServeRig(ctx, e, scalesim.ServiceConfig{Store: dir, Surrogate: frozenSurrogate()})
	if err != nil {
		return nil, err // run sweeps the temp root
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	rng := xrand.New(e.cfg.Seed)
	far := untrained()
	names := scalesim.BenchmarkNames()
	prs := scalesim.MachineSpec{Cores: 1}
	var grid []request
	for _, b := range gridBenchmarks {
		for _, g := range gridGBps {
			j, err := r.addJob(scalesim.MachineSpec{Cores: 1, DRAMPerCoreGBps: g}, b, e.pointOptions(1))
			if err != nil {
				return nil, err
			}
			rq, err := r.newRequest(classMemory, j)
			if err != nil {
				return nil, err
			}
			grid = append(grid, rq)
		}
	}

	// The script is a sequence of hundreds of jobs, each with the same number
	// of requests of every class in an order of its own, so that the equal
	// parts the script is measured in (whole hundreds when their count is a
	// multiple of scriptParts, as at -seconds 10) hold equal work.
	hundreds := make([][]request, e.ops(80, 1))
	var warm, stored []request
	// consumable builds the k-th request of a class whose keys are used
	// once. Each design point gets a seed no other point uses, so every key
	// is distinct. Points that must reach the simulator carry the full
	// budget (about 16 ms each, which makes the computes the bottleneck); the
	// rest carry the grid's, which the model was trained at.
	seed := uint64(1000)
	consumable := func(class string, k int) (request, error) {
		seed++
		machine, bench, opts, width := prs, far[(k+int(e.cfg.Seed))%len(far)], e.pointOptions(seed), 1
		switch class {
		case classDisk:
			bench = names[(k+int(e.cfg.Seed))%len(names)]
		case classModel:
			// A trained benchmark at a grid bandwidth or the midpoint above it.
			g := gridGBps[k%len(gridGBps)]
			if k%2 == 1 && g < gridGBps[len(gridGBps)-1] {
				g += 0.5
			}
			machine, bench = scalesim.MachineSpec{Cores: 1, DRAMPerCoreGBps: g}, gridBenchmarks[(k/2)%len(gridBenchmarks)]
		case classCoalesce:
			width = coalesceWidth
			fallthrough
		case classCompute:
			opts = e.cfg.Sim
			opts.Seed = seed
		}
		j, err := r.addJob(machine, bench, opts)
		if err != nil {
			return request{}, err
		}
		same := make([]int, width)
		for i := range same {
			same[i] = j
		}
		return r.newRequest(class, same...)
	}
	for _, c := range []struct {
		class string
		share int
	}{{classDisk, mixDisk}, {classModel, mixModel}, {classCompute, mixCompute}, {classCoalesce, mixCoalesce}} {
		for k := 0; k < c.share*len(hundreds)+mixedWarmups; k++ {
			rq, err := consumable(c.class, k)
			if err != nil {
				return nil, err
			}
			if k < mixedWarmups {
				warm = append(warm, rq)
			} else {
				h := (k - mixedWarmups) / c.share
				hundreds[h] = append(hundreds[h], rq)
				if c.class == classModel && len(r.modelSample) < modelErrorSample {
					r.modelSample = append(r.modelSample, rq.jobs[0])
				}
			}
			if c.class == classDisk {
				stored = append(stored, rq)
			}
		}
	}
	var script []request
	for _, hundred := range hundreds {
		for k := 0; k < mixMemory; k++ {
			hundred = append(hundred, grid[rng.Intn(len(grid))])
		}
		rng.Shuffle(len(hundred), func(i, j int) { hundred[i], hundred[j] = hundred[j], hundred[i] })
		script = append(script, hundred...)
	}
	r.script = script
	// verify re-simulates the first two answers of every ground-truth class.
	sampled := map[string]int{}
	for pos, rq := range script {
		if rq.class != classModel && sampled[rq.class] < 2 {
			sampled[rq.class]++
			r.checks = append(r.checks, pos)
		}
	}

	// An earlier service instance over the same directory — no surrogate,
	// so the model trains on the grid alone — stores the disk-class points.
	if err := fillStore(ctx, e, dir, r, stored); err != nil {
		return nil, err
	}
	// The grid computes through the server and trains the model; one pass
	// over the warm-up requests then touches every tier.
	if err := r.prime(ctx, classPrime, grid); err != nil {
		return nil, err
	}
	if err := r.prime(ctx, "", append(warm, grid...)); err != nil {
		return nil, err
	}
	return r, nil
}

// fillStore runs the design points of the given requests through a
// separate, short-lived service whose only job is to leave them on disk.
func fillStore(ctx context.Context, e *env, dir string, r *serveRig, stored []request) (err error) {
	svc, err := scalesim.NewService(scalesim.ServiceConfig{Store: dir, Tuning: &scalesim.Tuning{CampaignWorkers: serveWorkers, CoreWorkers: 1}})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := svc.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	errs := make([]error, serveWorkers)
	var wg sync.WaitGroup
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(stored) && errs[w] == nil; i += serveWorkers {
				prep, err := svc.Prepare(r.jobs[stored[i].jobs[0]].job)
				if err != nil {
					errs[w] = err
					return
				}
				errs[w] = svc.RunJobContext(ctx, prep).Err
			}
		}()
	}
	wg.Wait()
	for _, werr := range errs {
		if werr != nil {
			return fmt.Errorf("filling the store: %w", werr)
		}
	}
	return nil
}
