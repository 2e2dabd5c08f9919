package httpd

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hw"
	"repro/internal/molecule"
)

var update = flag.Bool("update", false, "rewrite the golden HTTP replies")

// replyScript is the request shapes the benchmark sends, in order: deploys
// on cpu,dpu and on fpga, warm and compute-body invokes, an FPGA invoke and
// the MapReduce chain.
var replyScript = []string{
	"POST /deploy?fn=pyaes&profiles=cpu,dpu",
	"POST /deploy?fn=gzip-compression&profiles=cpu,dpu",
	"POST /deploy?fn=mscale&profiles=fpga",
	"POST /deploy?fn=mr-splitter&profiles=cpu,dpu",
	"POST /deploy?fn=mr-mapper&profiles=cpu,dpu",
	"POST /deploy?fn=mr-reducer&profiles=cpu,dpu",
	"POST /invoke?fn=pyaes&body=0",
	"POST /invoke?fn=pyaes&body=0",
	"POST /invoke?fn=gzip-compression&body=1&bytes=4096",
	"POST /invoke?fn=mscale",
	"POST /chain?fns=mr-splitter,mr-mapper,mr-reducer",
	"POST /chain?fns=mr-splitter,mr-mapper,mr-reducer",
}

// transcript replays script against h and records each status and body.
func transcript(t *testing.T, h http.Handler, script []string) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, line := range script {
		var method, target string
		if _, err := fmt.Sscan(line, &method, &target); err != nil {
			t.Fatalf("bad script line %q: %v", line, err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		fmt.Fprintf(&out, "%s\n%d %s", line, rec.Code, rec.Body.Bytes())
	}
	return out.Bytes()
}

// TestReplyGolden pins both servers' exact reply bytes and status codes for
// the benchmark's request shapes. Regenerate intentionally with:
//
//	go test ./internal/httpd -run ReplyGolden -update
func TestReplyGolden(t *testing.T) {
	single, err := NewServer(hw.Config{DPUs: 2, FPGAs: 1}, molecule.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewClusterServer(4, hw.Config{DPUs: 2}, molecule.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cs.SetWorkers(1)
	for _, tc := range []struct {
		name   string
		h      http.Handler
		script []string
	}{
		{"single", single.Handler(), replyScript},
		{"cluster", cs.Handler(), append(replyScript, "GET /cluster/stats")},
	} {
		got := transcript(t, tc.h, tc.script)
		golden := filepath.Join("testdata", "replies_"+tc.name+".golden")
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("no golden replies; run with -update first: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s replies diverge from %s:\n got:\n%s\nwant:\n%s", tc.name, golden, got, want)
		}
	}
}
