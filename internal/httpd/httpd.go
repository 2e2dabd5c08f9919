// Package httpd exposes a simulated Molecule platform over real HTTP: a
// thin REST facade so the library can be driven like a serverless service
// (deploy, invoke, chains, stats) from curl or any client. Latencies in
// responses are virtual (simulated) times; function outputs are real when
// the workload has a compute body.
//
// One simulation environment backs the server; requests serialize on it
// (the environment is single-threaded by design), each running as a fresh
// driver process in virtual time.
package httpd

import (
	"fmt"
	"net/http"
	"sync"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Server is the REST facade over one simulated machine.
type Server struct {
	mu  sync.Mutex
	env *sim.Env
	rt  *molecule.Runtime
}

// NewServer builds the simulated machine and its Molecule runtime.
func NewServer(cfg hw.Config, opts molecule.Options) (*Server, error) {
	env := sim.NewEnv()
	m := hw.Build(env, cfg)
	var rt *molecule.Runtime
	var err error
	env.Spawn("boot", func(p *sim.Proc) {
		rt, err = molecule.New(p, m, workloads.NewRegistry(), opts)
	})
	env.Run()
	if err != nil {
		return nil, err
	}
	return &Server{env: env, rt: rt}, nil
}

// AttachFaults parses a fault-plan spec (see faults.ParseSpec) and wires the
// resulting plan through every layer of the server's runtime. Times in the
// spec are virtual and measured from the simulation epoch.
func (s *Server) AttachFaults(seed uint64, spec string) error {
	pl := faults.NewPlan(s.env, seed)
	if err := faults.ParseSpec(pl, spec); err != nil {
		return err
	}
	s.rt.AttachFaults(pl)
	return nil
}

// EnableObservability attaches a span tracer and metrics registry to the
// server's runtime and returns it. /metrics and /trace serve its state;
// without this call both endpoints return 404 and invocations record
// nothing.
func (s *Server) EnableObservability() *obs.Observer {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := obs.New(s.env)
	s.rt.SetObserver(o)
	return o
}

// EnableSLO attaches a latency-objective engine (default objective def) to
// the server's observer, enabling observability first if needed. GET /slo
// serves the engine's scored state; /metrics gains the slo_* gauge
// families. Deploys may override the default per function with the
// slo/slo_target form values.
func (s *Server) EnableSLO(def obs.SLOConfig) *obs.SLOEngine {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.rt.Observer()
	if o == nil {
		o = obs.New(s.env)
		s.rt.SetObserver(o)
	}
	if o.SLO == nil {
		o.SLO = obs.NewSLOEngine(def)
	}
	return o.SLO
}

// LoadFunctions registers custom JSON-defined workloads (see
// workloads.FunctionSpec).
func (s *Server) LoadFunctions(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.Registry.LoadJSON(data)
}

// drive runs body as a driver process to completion, serialized against
// other requests.
func (s *Server) drive(body func(p *sim.Proc)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.env.Spawn("http-driver", func(p *sim.Proc) { body(p) })
	s.env.Run()
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handleForms(mux, s)
	mux.HandleFunc("GET /functions", s.handleFunctions)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.HandleFunc("POST /experiments/{id}", s.handleRunExperiment)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("GET /slo", s.handleSLO)
	return mux
}

// handleMetrics serves the metrics registry in the Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.rt.Observer()
	if o == nil {
		http.Error(w, "observability disabled", http.StatusNotFound)
		return
	}
	o.SLO.Export(o.Metrics) // nil-safe; mirrors SLO state into slo_* gauges
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	o.Metrics.WritePrometheus(w)
}

// handleSLO serves the latency-objective engine's scored state as JSON:
// per-function attainment, error-budget burn, and sketch quantiles. 404
// until EnableSLO is called.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.rt.Observer()
	if o == nil || o.SLO == nil {
		http.Error(w, "slo engine disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	o.SLO.WriteJSON(w)
}

// handleTrace serves the recorded span tree as Chrome trace_event JSON
// (loadable in Perfetto or chrome://tracing).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.rt.Observer()
	if o == nil {
		http.Error(w, "observability disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	o.Tracer.WriteChromeTrace(w)
}

// deploy places fn on the machine now, first checking that a requested
// objective has an SLO engine to land in.
func (s *Server) deploy(f deployForm) (string, error) {
	if f.slo != nil {
		s.mu.Lock()
		o := s.rt.Observer()
		s.mu.Unlock()
		if o == nil || o.SLO == nil {
			return "", errNoSLO
		}
	}
	var err error
	s.drive(func(p *sim.Proc) { err = s.rt.Deploy(p, f.fn, f.profiles...) })
	if err != nil {
		return "", err
	}
	if f.slo != nil {
		s.mu.Lock()
		if o := s.rt.Observer(); o != nil {
			o.SLO.SetObjective(f.fn, *f.slo)
		}
		s.mu.Unlock()
	}
	return "deployed", nil
}

// invoke runs one request under a gateway.request root span.
func (s *Server) invoke(fn string, opts molecule.InvokeOptions) (res molecule.Result, machine int, err error) {
	s.drive(func(p *sim.Proc) {
		gw := s.rt.Observer().Span(nil, "gateway.request", int(s.rt.HostID()))
		gw.SetAttr("fn", fn)
		opts.Span = gw
		res, err = s.rt.Invoke(p, fn, opts)
		gw.Finish()
	})
	return res, -1, err
}

func (s *Server) chain(fns []string) (res molecule.ChainResult, err error) {
	s.drive(func(p *sim.Proc) { res, err = s.rt.InvokeChain(p, fns, molecule.ChainOptions{}) })
	return res, err
}

func (s *Server) handleFunctions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"functions": s.rt.Registry.Names()})
}

// handleExperiments lists the paper's reproducible experiments.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type exp struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Paper string `json:"paper"`
	}
	var out []exp
	for _, e := range bench.All() {
		out = append(out, exp{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

// handleRunExperiment runs one experiment and returns its tables as JSON.
// Experiments build their own simulated machines, so they do not touch the
// server's runtime state.
func (s *Server) handleRunExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := bench.ByID(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpd: no experiment %q", id))
		return
	}
	type table struct {
		Title  string     `json:"title"`
		Note   string     `json:"note,omitempty"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	var tables []table
	for _, t := range e.Run() {
		tables = append(tables, table{Title: t.Title, Note: t.Note, Header: t.Header, Rows: t.Rows})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": e.ID, "title": e.Title, "paper": e.Paper, "tables": tables,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pus := make([]map[string]any, 0)
	for _, n := range s.rt.Snapshot() {
		entry := map[string]any{
			"id": int(n.PU), "kind": n.Kind.String(), "name": n.Name,
			"capacity": n.Capacity, "live": n.Live,
			"executor_alive": n.ExecutorAlive,
		}
		if len(n.WarmPerFunc) > 0 {
			entry["warm"] = n.WarmPerFunc
		}
		if len(n.FPGAImage) > 0 {
			entry["fpga_image"] = n.FPGAImage
		}
		pus = append(pus, entry)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"virtual_time":   s.env.Now().String(),
		"pus":            pus,
		"capacity":       s.rt.Capacity(),
		"live_instances": s.rt.LiveInstances(),
		"billed_units":   s.rt.Billing().Total(),
		"invocations":    len(s.rt.Billing().Entries()),
	})
}
