package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("p4_http_test_total", "HTTP test counter.")
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	tr := r.NewTrace("lifecycle", 8)
	tr.Add("open", 1, 0)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "p4_http_test_total 5") {
		t.Errorf("/metrics = %d:\n%s", code, body)
	}

	code, body = get(t, srv, "/trace")
	if code != http.StatusOK || !strings.Contains(body, "seq=0 open a=1 b=0") {
		t.Errorf("/trace = %d:\n%s", code, body)
	}

	if code, _ := get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, body := get(t, srv, "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d:\n%s", code, body)
	}
	if code, _ := get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

// TestServe scrapes the endpoint Serve starts, then requires Close to
// end its serve goroutine and the connection it served.
func TestServe(t *testing.T) {
	baseline := runtime.NumGoroutine()
	r := NewRegistry()
	r.AddProcessMetrics()
	srv, addr, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "p4_process_goroutines") {
		t.Errorf("process metrics missing:\n%s", body)
	}
	client.CloseIdleConnections()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline=%d now=%d", baseline, runtime.NumGoroutine())
		}
	}
}
