package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns the observability mux:
//
//	/metrics       Prometheus text exposition of every registered metric
//	/trace         dump of every registered trace ring, oldest first
//	/debug/pprof/  the standard pprof index, profile, symbol, trace
//
// The mux is self-contained; nothing is registered on
// http.DefaultServeMux.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		traces := r.Traces()
		if len(traces) == 0 {
			fmt.Fprintln(w, "# no trace rings registered")
			return
		}
		for _, t := range traces {
			if _, err := t.WriteTo(w); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "p4-psonar self-telemetry\n\n"+
			"  /metrics       Prometheus text\n"+
			"  /trace         event trace rings\n"+
			"  /debug/pprof/  pprof profiles\n")
	})
	return mux
}

// Serve starts the observability endpoint on addr in a background
// goroutine and returns the bound listener address (useful with
// ":0"). Close the returned server to stop it.
func (r *Registry) Serve(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.Handler()}
	go func() {
		// ErrServerClosed after Close is the orderly path; any other
		// error leaves the endpoint dark, which is not worth crashing a
		// measurement run over.
		_ = srv.Serve(ln)
	}()
	return srv, ln.Addr().String(), nil
}
