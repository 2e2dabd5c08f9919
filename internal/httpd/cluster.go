package httpd

// ClusterServer is the REST facade over a boss/worker cluster: the same
// thin-gateway idea as Server, but fronting cluster.Boss — N simulated
// machines on their own kernel domains behind one scheduler — instead of a
// single runtime. Requests serialize on the cluster simulation; each drive
// runs the sharded kernel to quiescence, so responses always reflect a
// settled cluster.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
)

// ClusterServer is the REST facade over one simulated cluster.
type ClusterServer struct {
	mu      sync.Mutex
	boss    *cluster.Boss
	workers int // kernel workers per drive (0 = GOMAXPROCS)
}

// NewClusterServer builds a boss fronting `machines` simulated machines,
// each with the given hardware shape and runtime options.
func NewClusterServer(machines int, cfg hw.Config, opts molecule.Options) (*ClusterServer, error) {
	b, err := cluster.NewBoss(cluster.BossConfig{Machines: machines, HW: cfg, Opts: opts})
	if err != nil {
		return nil, err
	}
	return &ClusterServer{boss: b}, nil
}

// SetWorkers pins the kernel worker count used to drive requests (0 =
// GOMAXPROCS). Results are byte-identical at every setting.
func (s *ClusterServer) SetWorkers(n int) { s.workers = n }

// Boss exposes the underlying cluster for tests and embedding callers.
func (s *ClusterServer) Boss() *cluster.Boss { return s.boss }

// drive runs body as a client process on the boss domain and drives the
// cluster to quiescence, serialized against other requests.
func (s *ClusterServer) drive(body func(p *sim.Proc)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.boss.Env.Spawn("http-client", func(p *sim.Proc) { body(p) })
	s.boss.Run(s.workers)
}

// Handler returns the HTTP routes.
func (s *ClusterServer) Handler() http.Handler {
	mux := http.NewServeMux()
	handleForms(mux, s)
	mux.HandleFunc("GET /cluster/stats", s.handleStats)
	mux.HandleFunc("POST /cluster/drain", s.handleAdmin((*cluster.Boss).Drain, "drained"))
	mux.HandleFunc("POST /cluster/undrain", s.handleAdmin((*cluster.Boss).Undrain, "undrained"))
	return mux
}

// deploy registers fn with the boss; each machine deploys it on first use.
// The cluster has no SLO engine.
func (s *ClusterServer) deploy(f deployForm) (string, error) {
	if f.slo != nil {
		return "", errNoSLO
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return "registered", s.boss.Register(f.fn, f.profiles...)
}

// invoke routes one request through the boss. The boss places requests by
// function, so a pinned pu and body=1 compute, both single-machine
// features, are ignored here.
func (s *ClusterServer) invoke(fn string, opts molecule.InvokeOptions) (res molecule.Result, machine int, err error) {
	opts.PU, opts.RunBody = molecule.DefaultInvokeOptions().PU, false
	s.drive(func(p *sim.Proc) { res, machine, err = s.boss.InvokeDetailed(p, fn, opts) })
	return res, machine, err
}

func (s *ClusterServer) chain(fns []string) (res molecule.ChainResult, err error) {
	s.drive(func(p *sim.Proc) { res, err = s.boss.InvokeChain(p, fns, molecule.ChainOptions{}) })
	return res, err
}

func (s *ClusterServer) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nodes := make([]map[string]any, 0)
	for _, n := range s.boss.Nodes() {
		nodes = append(nodes, map[string]any{
			"machine":  n.ID(),
			"capacity": n.Capacity(),
			"inflight": n.Inflight(),
			"served":   n.Served(),
			"stolen":   n.Stolen(),
			"down":     n.Down(),
			"draining": n.Draining(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"machines":    nodes,
		"queued":      s.boss.Queued(),
		"queued_peak": s.boss.QueuedPeak(),
		"stolen":      s.boss.Stolen(),
	})
}

// handleAdmin serves /cluster/drain and /cluster/undrain: op applies to
// the machine named by the worker form value, and verb keys the reply.
func (s *ClusterServer) handleAdmin(op func(*cluster.Boss, int) error, verb string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v := r.FormValue("worker")
		worker, err := strconv.Atoi(v)
		switch {
		case v == "":
			err = errors.New("httpd: worker parameter required")
		case err != nil:
			err = fmt.Errorf("httpd: bad worker %q", v)
		default:
			s.drive(func(p *sim.Proc) { err = op(s.boss, worker) })
		}
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{verb: worker})
	}
}
