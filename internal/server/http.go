package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"scalesim"
	apiv1 "scalesim/api/v1"
)

// Handler returns the service's HTTP surface:
//
//	POST /v1/jobs  — run an apiv1.JobRequest batch, respond apiv1.JobResponse
//	GET  /healthz  — liveness; 200 "ok" serving, 503 "draining" during drain
//	GET  /statsz   — apiv1.StatsResponse: campaign counters + queue state
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /statsz", s.handleStats)
	return mux
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	req, err := apiv1.DecodeJobRequest(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, err)
		return
	}
	outcomes := s.submitBatch(r.Context(), req.Client, req.Jobs)

	// Admission failures decide the status: a drain refusal is
	// server-wide (503), and a batch shed in its entirety is pure
	// backpressure (429 + Retry-After). A partially shed batch still
	// returns its completed outcomes; the shed jobs carry queue-full
	// errors.
	shed, ok := 0, 0
	for _, oc := range outcomes {
		switch {
		case errors.Is(oc.admissionErr, ErrDraining):
			s.writeError(w, http.StatusServiceUnavailable, oc.admissionErr)
			return
		case errors.Is(oc.admissionErr, ErrQueueFull):
			shed++
		default:
			ok++
		}
	}
	if shed > 0 && ok == 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
		s.writeError(w, http.StatusTooManyRequests, outcomes[0].admissionErr)
		return
	}

	resp := &apiv1.JobResponse{Schema: apiv1.Schema, Outcomes: make([]apiv1.JobOutcome, len(outcomes)), Stats: s.Stats()}
	for i, oc := range outcomes {
		resp.Outcomes[i] = oc.wire
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// batchOutcome pairs a job's wire outcome with its admission error, which
// shapes the HTTP status rather than the payload.
type batchOutcome struct {
	wire         apiv1.JobOutcome
	admissionErr error
}

// submitBatch answers a request's jobs in submission order. A one-job
// request — nine in ten on serve-hot — is Submit on the request's goroutine.
// In a longer batch each job is prepared, and answered if it has landed, on
// the request's goroutine too; only the misses fork, one goroutine each, so
// identical design points inside one batch coalesce exactly like concurrent
// requests do.
func (s *Server) submitBatch(ctx context.Context, client string, jobs []scalesim.CampaignJob) []batchOutcome {
	out := make([]batchOutcome, len(jobs))
	if len(jobs) == 1 {
		oc, err := s.Submit(ctx, client, jobs[0])
		out[0] = newBatchOutcome(0, oc, err)
		return out
	}
	var wg sync.WaitGroup
	for i := range jobs {
		prep, oc, answered := s.prepare(jobs[i])
		if answered {
			out[i] = newBatchOutcome(i, oc, nil)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			oc, err := s.queued(ctx, client, prep)
			out[i] = newBatchOutcome(i, oc, err)
		}()
	}
	wg.Wait()
	return out
}

// newBatchOutcome pairs job i's outcome with its admission error. A job the
// queue shed answers with why it never ran.
func newBatchOutcome(i int, oc scalesim.JobOutcome, admissionErr error) batchOutcome {
	if oc.Err == nil {
		oc.Err = admissionErr
	}
	return batchOutcome{wire: wireOutcome(i, oc), admissionErr: admissionErr}
}

// wireOutcome converts a public JobOutcome to its apiv1 form.
func wireOutcome(i int, oc scalesim.JobOutcome) apiv1.JobOutcome {
	out := apiv1.JobOutcome{
		Job:         i,
		Source:      string(oc.Source),
		CacheHit:    oc.CacheHit,
		Approximate: oc.Approximate,
		Result:      oc.Result,
	}
	if oc.Err != nil {
		out.Error = oc.Err.Error()
	}
	return out
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := &apiv1.HealthResponse{Schema: apiv1.Schema, Status: "ok"}
	status := http.StatusOK
	if s.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	q := s.queue.snapshot()
	s.writeJSON(w, http.StatusOK, &apiv1.StatsResponse{
		Schema:        apiv1.Schema,
		Stats:         s.Stats(),
		QueueDepth:    q.depth,
		QueueCapacity: q.capacity,
		Shed:          q.shed,
		Clients:       q.clients,
		Draining:      s.Draining(),
	})
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	resp := &apiv1.ErrorResponse{Schema: apiv1.Schema, Error: err.Error()}
	if status == http.StatusTooManyRequests {
		resp.RetryAfterSec = retryAfterSec
	}
	s.writeJSON(w, status, resp)
}

// writeJSON answers with v's one JSON document, its length declared, so a
// body of any size goes out in one piece rather than chunked.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := apiv1.Marshal(v)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if err == nil {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteHeader(status)
	// A value that does not marshal leaves the body empty, as encoding it
	// onto the connection did; a write failure means the client went away.
	// Either way there is nothing left to report to.
	_, _ = w.Write(body)
}
