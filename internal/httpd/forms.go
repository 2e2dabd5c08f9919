package httpd

// The request path both servers share: /deploy, /invoke and /chain parse
// their forms here, drive a backend (one machine or a cluster), map the
// backend's error to a status and build the reply here.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/obs"
)

// Input bounds. Invokes with body=1 run the function's real Go body on the
// host while the server's request lock is held: maxBodyBytes admits the
// largest default payload of any body (dd's 1 MiB); maxBodyN bounds matrix
// and image dimensions, whose bodies grow as N² or N³. Without body=1 sizes
// only feed the cost model and need only be non-negative. maxChainLen
// bounds /chain, whose simulation also holds the lock.
const (
	maxBodyBytes = 1 << 20
	maxBodyN     = 1 << 10
	maxChainLen  = 1 << 10
)

// backend is what the shared handlers drive: one simulated machine
// (Server) or a boss/worker cluster (ClusterServer). Each call serializes
// on the backend's own request lock.
type backend interface {
	// deploy installs f.fn and returns the reply's verb: "deployed" when
	// the function is placed now, "registered" when machines deploy it on
	// first use.
	deploy(f deployForm) (verb string, err error)
	// invoke runs one request. machine is the serving machine's index, or
	// -1 on a single-machine backend, whose reply has no machine field.
	invoke(fn string, opts molecule.InvokeOptions) (res molecule.Result, machine int, err error)
	chain(fns []string) (molecule.ChainResult, error)
}

// errNoSLO rejects a per-function objective on a server without an SLO
// engine.
var errNoSLO = errors.New("httpd: slo engine disabled (EnableSLO / moleculed -slo)")

// handleForms registers the /deploy, /invoke and /chain routes on mux.
func handleForms(mux *http.ServeMux, b backend) {
	mux.HandleFunc("POST /deploy", func(w http.ResponseWriter, r *http.Request) {
		f, err := parseDeploy(r)
		if err != nil {
			fail(w, err)
			return
		}
		verb, err := b.deploy(f)
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{verb: f.fn, "profiles": f.rawProfiles})
	})
	mux.HandleFunc("POST /invoke", func(w http.ResponseWriter, r *http.Request) {
		fn, opts, err := parseInvoke(r)
		if err != nil {
			fail(w, err)
			return
		}
		res, machine, err := b.invoke(fn, opts)
		if err != nil {
			fail(w, err)
			return
		}
		reply := InvokeResponse{
			Fn: res.Fn, PU: int(res.PU), Kind: res.Kind.String(), Cold: res.Cold,
			StartupMs: ms(res.Startup), ExecMs: ms(res.Exec), TotalMs: ms(res.Total),
			Output: res.Output,
		}
		if machine < 0 {
			writeJSON(w, http.StatusOK, reply)
			return
		}
		writeJSON(w, http.StatusOK, ClusterInvokeResponse{InvokeResponse: reply, Machine: machine})
	})
	mux.HandleFunc("POST /chain", func(w http.ResponseWriter, r *http.Request) {
		raw := r.FormValue("fns")
		if raw == "" {
			fail(w, errors.New("httpd: fns parameter required"))
			return
		}
		fns := strings.Split(raw, ",")
		if len(fns) > maxChainLen {
			fail(w, fmt.Errorf("httpd: chain of %d functions above the limit %d", len(fns), maxChainLen))
			return
		}
		res, err := b.chain(fns)
		if err != nil {
			fail(w, err)
			return
		}
		edges := make([]float64, len(res.EdgeLatency))
		for i, e := range res.EdgeLatency {
			edges[i] = ms(e)
		}
		writeJSON(w, http.StatusOK, ChainResponse{
			Fns: fns, TotalMs: ms(res.Total), EdgeMs: edges, ColdStarts: res.ColdStarts,
		})
	})
}

// statusOf maps a request error to its status: exhausted recovery,
// saturation and dead machines (molecule.ErrUnavailable) are the
// platform's fault and answer 503; everything else is the client's, 400.
func statusOf(err error) int {
	if errors.Is(err, molecule.ErrUnavailable) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// fail writes err as the JSON error reply with its status.
func fail(w http.ResponseWriter, err error) { writeErr(w, statusOf(err), err) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// InvokeResponse is the /invoke reply.
type InvokeResponse struct {
	Fn        string  `json:"fn"`
	PU        int     `json:"pu"`
	Kind      string  `json:"kind"`
	Cold      bool    `json:"cold"`
	StartupMs float64 `json:"startup_ms"`
	ExecMs    float64 `json:"exec_ms"`
	TotalMs   float64 `json:"total_ms"`
	Output    any     `json:"output,omitempty"`
}

// ClusterInvokeResponse is the cluster /invoke reply: the single-machine
// fields plus which machine served the request.
type ClusterInvokeResponse struct {
	InvokeResponse
	Machine int `json:"machine"`
}

// ChainResponse is the /chain reply.
type ChainResponse struct {
	Fns        []string  `json:"fns"`
	TotalMs    float64   `json:"total_ms"`
	EdgeMs     []float64 `json:"edge_ms"`
	ColdStarts int       `json:"cold_starts"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// deployForm is a parsed /deploy request.
type deployForm struct {
	fn          string
	profiles    []molecule.Profile
	rawProfiles string         // the profiles value as sent, echoed in the reply
	slo         *obs.SLOConfig // per-function objective override, or nil
}

// parseDeploy reads fn, the optional profiles list and the optional
// slo/slo_target objective override.
func parseDeploy(r *http.Request) (deployForm, error) {
	f := deployForm{fn: r.FormValue("fn"), rawProfiles: r.FormValue("profiles")}
	if f.fn == "" {
		return f, errors.New("httpd: fn parameter required")
	}
	var err error
	if f.profiles, err = parseProfiles(f.rawProfiles); err != nil {
		return f, err
	}
	v := r.FormValue("slo")
	if v == "" {
		return f, nil
	}
	obj, err := time.ParseDuration(v)
	if err != nil {
		return f, fmt.Errorf("httpd: bad slo %q: %w", v, err)
	}
	cfg := obs.SLOConfig{Objective: obj, Target: 0.999}
	if tv := r.FormValue("slo_target"); tv != "" {
		t, err := strconv.ParseFloat(tv, 64)
		if err != nil || t <= 0 || t > 1 {
			return f, fmt.Errorf("httpd: bad slo_target %q", tv)
		}
		cfg.Target = t
	}
	f.slo = &cfg
	return f, nil
}

// parseProfiles maps "cpu,dpu,fpga,gpu" to profiles.
func parseProfiles(s string) ([]molecule.Profile, error) {
	if s == "" {
		return nil, nil
	}
	var out []molecule.Profile
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "cpu":
			out = append(out, molecule.DefaultProfile(hw.CPU))
		case "dpu":
			out = append(out, molecule.DefaultProfile(hw.DPU))
		case "fpga":
			out = append(out, molecule.DefaultProfile(hw.FPGA))
		case "gpu":
			out = append(out, molecule.DefaultProfile(hw.GPU))
		case "":
		default:
			return nil, fmt.Errorf("httpd: unknown profile %q", part)
		}
	}
	return out, nil
}

// parseInvoke reads fn plus the optional pinned pu, the argument sizes
// bytes and n, and body=1 to run the real compute body. Sizes are bounded
// as the constants above document.
func parseInvoke(r *http.Request) (string, molecule.InvokeOptions, error) {
	opts := molecule.DefaultInvokeOptions()
	fn := r.FormValue("fn")
	if fn == "" {
		return "", opts, errors.New("httpd: fn parameter required")
	}
	opts.RunBody = r.FormValue("body") == "1"
	maxBytes, maxN := math.MaxInt, math.MaxInt
	if opts.RunBody {
		maxBytes, maxN = maxBodyBytes, maxBodyN
	}
	pu, err := formInt(r, "pu", int(opts.PU), math.MaxInt)
	if err != nil {
		return "", opts, err
	}
	opts.PU = hw.PUID(pu)
	if opts.Arg.Bytes, err = formInt(r, "bytes", opts.Arg.Bytes, maxBytes); err != nil {
		return "", opts, err
	}
	if opts.Arg.N, err = formInt(r, "n", opts.Arg.N, maxN); err != nil {
		return "", opts, err
	}
	return fn, opts, nil
}

// formInt reads the integer form value key in [0, max], or def when the
// value is absent.
func formInt(r *http.Request, key string, def, max int) (int, error) {
	v := r.FormValue(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("httpd: bad %s %q", key, v)
	}
	if n > max {
		return 0, fmt.Errorf("httpd: %s %d above the body=1 limit %d", key, n, max)
	}
	return n, nil
}
