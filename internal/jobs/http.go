package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"icsched/internal/dag"
	"icsched/internal/icserver"
)

// HTTP wire format.  The job service speaks the same dialect as the
// single-dag icserver — typed JSON error bodies, job-scoped batched
// grants with piggybacked asks — with every grant and report carrying a
// job ID and that job's epoch:
//
//	POST /jobs    {"tenant":"a","family":"wavefront","size":32}   → 202 JobStatus
//	POST /jobs    {"tenant":"a","dag":{"nodes":3,"arcs":[[0,2]]}} → 202 JobStatus
//	GET  /jobs                                → 200 [JobStatus...]
//	GET  /jobs/{id}                           → 200 JobStatus | 404
//	POST /tasks   {"k":8}                     → 200 GrantSet (one job's tasks)
//	POST /report  {"job":"j1","epoch":1,"done":[...],"failed":[...],"k":8}
//	                                          → 200 ReportResult | 409 stale epoch
//	GET  /status                              → 200 statusResponse (service + job list)
//	GET  /metrics                             → Prometheus text
//	GET  /healthz                             → 200 ok
//
// Refusals mirror icserver's typed bodies: 503 {"error":"unavailable",
// "reason":...} on a draining/dead service, 429 {"error":"backpressure",
// "tenant":...} over a tenant's queue cap, 409 {"error":"stale epoch",
// "epoch":E} on a fenced report.

// allocRequest asks for up to K tasks (from whichever job fairness
// picks).
type allocRequest struct {
	K int `json:"k"`
}

// reportRequest acks one job-scoped batch, optionally piggybacking the
// next ask.
type reportRequest struct {
	Job    string       `json:"job"`
	Epoch  uint64       `json:"epoch,omitempty"`
	Done   []dag.NodeID `json:"done,omitempty"`
	Failed []dag.NodeID `json:"failed,omitempty"`
	K      int          `json:"k,omitempty"`
}

// statusResponse is GET /status: the service snapshot plus the full job
// list (clients resync a fenced job's epoch from here).
type statusResponse struct {
	Status
	Jobs []JobStatus `json:"jobs"`
}

// backpressureResponse is the typed 429 body.
type backpressureResponse struct {
	Error  string `json:"error"` // always "backpressure"
	Tenant string `json:"tenant"`
}

// unavailableResponse mirrors icserver's typed 503 body.
type unavailableResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
}

// staleEpochResponse mirrors icserver's typed 409 body; the current
// epoch lets the client resync in place.
type staleEpochResponse struct {
	Error string `json:"error"`
	Epoch uint64 `json:"epoch"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeServiceError maps the typed jobs errors onto response codes.
func writeServiceError(w http.ResponseWriter, err error) {
	var unavail UnavailableError
	var busy BackpressureError
	var stale StaleEpochError
	switch {
	case errors.As(err, &unavail):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(unavailableResponse{
			Error: "unavailable", Reason: unavail.Reason, Detail: err.Error()})
	case errors.As(err, &busy):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(backpressureResponse{
			Error: "backpressure", Tenant: busy.Tenant})
	case errors.As(err, &stale):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(staleEpochResponse{
			Error: icserver.StaleEpoch, Epoch: stale.Epoch})
	case errors.Is(err, ErrUnknownJob):
		http.Error(w, err.Error(), http.StatusNotFound)
	case icserver.IsDuplicateAck(err):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case icserver.IsUnavailable(err):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(unavailableResponse{
			Error: "unavailable", Reason: icserver.ReasonKilled, Detail: err.Error()})
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// Handler mounts the job service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJobByID)
	mux.HandleFunc("/tasks", s.handleTasks)
	mux.HandleFunc("/report", s.handleReport)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", s.reg.Handler())
	return mux
}

// handleJobs: POST submits one job (202 Accepted — execution is
// asynchronous through the pipeline); GET lists every job.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var sp Spec
		if !decodeInto(w, r, &sp) {
			return
		}
		st, err := s.Submit(sp)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(st)
	case http.MethodGet:
		writeJSON(w, s.Jobs())
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleJobByID: GET /jobs/{id}.
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	st, ok := s.JobByID(id)
	if !ok {
		http.Error(w, fmt.Sprintf("%v: %s", ErrUnknownJob, id), http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

// handleTasks: POST /tasks grants up to k tasks of one fairness-chosen
// job.
func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	req := allocRequest{K: 1}
	if !decodeInto(w, r, &req) {
		return
	}
	grant, err := s.Allocate(req.K)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, grant)
}

// handleReport: POST /report acks a job-scoped batch and piggybacks the
// next grant.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req reportRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Job == "" {
		http.Error(w, "report without a job", http.StatusBadRequest)
		return
	}
	res, err := s.Report(req.Job, req.Done, req.Failed, req.Epoch, req.K)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, res)
}

// handleStatus: GET /status — the service snapshot plus the job list,
// with each active job's current epoch visible (the resync path for
// fenced clients).
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, statusResponse{Status: s.ServiceStatus(), Jobs: s.Jobs()})
}
