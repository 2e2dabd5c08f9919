package httpd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/molecule"
)

const validInvoke = "fn=gzip-compression"

// formServers builds both servers with gzip-compression and helloworld
// deployed.
func formServers(tb testing.TB) map[string]http.Handler {
	tb.Helper()
	single, err := NewServer(hw.Config{DPUs: 2, FPGAs: 1}, molecule.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	cs, err := NewClusterServer(2, hw.Config{DPUs: 1}, molecule.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	cs.SetWorkers(1)
	servers := map[string]http.Handler{"single": single.Handler(), "cluster": cs.Handler()}
	for name, h := range servers {
		for _, fn := range []string{"gzip-compression", "helloworld"} {
			if rec := serveQuery(h, "/deploy", "fn="+fn); rec.Code != http.StatusOK {
				tb.Fatalf("%s: deploy %s: %d %s", name, fn, rec.Code, rec.Body)
			}
		}
	}
	return servers
}

// serveQuery POSTs to path with the raw query string, which need not be
// well formed.
func serveQuery(h http.Handler, path, query string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, nil)
	req.URL.RawQuery = query
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestInvokeBoundsInputs: negative sizes or pu, body=1 sizes above the
// limits and chains longer than maxChainLen are the client's error on both
// servers, and the server goes on serving. The size limits themselves are
// admitted.
func TestInvokeBoundsInputs(t *testing.T) {
	for name, h := range formServers(t) {
		for _, tc := range []struct {
			query string
			want  int
		}{
			{"fn=gzip-compression&bytes=-5&body=1", http.StatusBadRequest},
			{"fn=gzip-compression&bytes=-5", http.StatusBadRequest},
			{"fn=gzip-compression&n=-1", http.StatusBadRequest},
			{"fn=gzip-compression&pu=-2", http.StatusBadRequest},
			{"fn=gzip-compression&bytes=1048577&body=1", http.StatusBadRequest},
			{"fn=gzip-compression&n=1025&body=1", http.StatusBadRequest},
			{"fn=gzip-compression&bytes=1048576&n=1024&body=1", http.StatusOK},
			{"fn=gzip-compression&bytes=52428800", http.StatusOK},
		} {
			if rec := serveQuery(h, "/invoke", tc.query); rec.Code != tc.want {
				t.Errorf("%s: /invoke?%s = %d %s, want %d", name, tc.query, rec.Code, rec.Body, tc.want)
			}
			if rec := serveQuery(h, "/invoke", validInvoke); rec.Code != http.StatusOK {
				t.Errorf("%s: valid invoke after %q = %d %s", name, tc.query, rec.Code, rec.Body)
			}
		}
		long := "fns=" + strings.Repeat("helloworld,", maxChainLen) + "helloworld"
		if rec := serveQuery(h, "/chain", long); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "above the limit") {
			t.Errorf("%s: /chain of %d functions = %d %s, want 400 naming the limit", name, maxChainLen+1, rec.Code, rec.Body)
		}
		if rec := serveQuery(h, "/invoke", validInvoke); rec.Code != http.StatusOK {
			t.Errorf("%s: valid invoke after an overlong chain = %d %s", name, rec.Code, rec.Body)
		}
	}
}

// FuzzInvokeForm drives both servers' /invoke with arbitrary query
// strings: every input gets a 2xx, 4xx or 5xx without a panic, and the
// next valid invoke still returns 200.
func FuzzInvokeForm(f *testing.F) {
	for _, q := range []string{
		"fn=gzip-compression&bytes=-5&body=1",
		"fn=gzip-compression&body=1&bytes=4096",
		"fn=helloworld&body=1&pu=0",
		"fn=gzip-compression&pu=99",
		"fn=gzip-compression&n=99999999999999999999",
		"fn=gzip-compression&bytes=9223372036854775807",
		"fn=nope",
		"fn=%zz&bytes=1;2",
		"",
	} {
		f.Add(q)
	}
	servers := formServers(f)
	f.Fuzz(func(t *testing.T, query string) {
		for name, h := range servers {
			if rec := serveQuery(h, "/invoke", query); rec.Code < 200 || rec.Code >= 600 {
				t.Fatalf("%s: /invoke?%s = %d", name, query, rec.Code)
			}
			if rec := serveQuery(h, "/invoke", validInvoke); rec.Code != http.StatusOK {
				t.Fatalf("%s: valid invoke after %q = %d %s", name, query, rec.Code, rec.Body)
			}
		}
	})
}

// TestMixedKindChain: a chain of a CPU-only function feeding a DPU-only
// function runs on both servers, with its one edge crossing PUs.
func TestMixedKindChain(t *testing.T) {
	for name, h := range formServers(t) {
		for _, q := range []string{"fn=pyaes&profiles=cpu", "fn=matmul&profiles=dpu"} {
			if rec := serveQuery(h, "/deploy", q); rec.Code != http.StatusOK {
				t.Fatalf("%s: deploy %s: %d %s", name, q, rec.Code, rec.Body)
			}
		}
		rec := serveQuery(h, "/chain", "fns=pyaes,matmul")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: /chain?fns=pyaes,matmul = %d %s", name, rec.Code, rec.Body)
		}
		var reply ChainResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		if len(reply.EdgeMs) != 1 || reply.EdgeMs[0] <= 0 {
			t.Errorf("%s: chain edges %v ms, want one cross-PU edge", name, reply.EdgeMs)
		}
	}
}

// FuzzParseProfiles: a /deploy profiles list either fails to parse or maps
// every non-blank comma-separated name, in order and case-insensitively, to
// that PU kind's default profile.
func FuzzParseProfiles(f *testing.F) {
	for _, s := range []string{"cpu,dpu,fpga,gpu", " DPU , ,cpu", "", ",", "tpu", "cpu,\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parseProfiles(s)
		if err != nil {
			return
		}
		var names []string
		for _, part := range strings.Split(s, ",") {
			if name := strings.TrimSpace(strings.ToLower(part)); name != "" {
				names = append(names, name)
			}
		}
		if len(got) != len(names) {
			t.Fatalf("%q: %d profiles for %d names", s, len(got), len(names))
		}
		for i, p := range got {
			if strings.ToLower(p.Kind.String()) != names[i] || p != molecule.DefaultProfile(p.Kind) {
				t.Fatalf("%q: profile %d = %+v for name %q", s, i, p, names[i])
			}
		}
	})
}
