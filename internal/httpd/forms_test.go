package httpd

import (
	"net/http"
	"net/http/httptest"
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

// TestInvokeBoundsInputs: negative sizes or pu, and body=1 sizes above the
// limits, are the client's error on both servers, and the server goes on
// serving. The limits themselves are admitted.
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
