package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// Admin is the opt-in observability HTTP server. Nothing in this file
// runs unless StartAdmin is called: no listener, no goroutine, no
// DefaultServeMux registration (pprof handlers are mounted on a private
// mux precisely so importing this package has no side effects).
type Admin struct {
	ln        net.Listener
	srv       *http.Server
	collector *RuntimeCollector

	closeOnce sync.Once
	done      chan struct{}
}

// AdminOptions extends the admin surface beyond the metric registry.
type AdminOptions struct {
	// Extra mounts caller-supplied endpoints (model reload, checkpoint
	// triggers) on the same listener; patterns colliding with built-in
	// endpoints are skipped — the observability surface cannot be
	// shadowed.
	Extra map[string]http.Handler
	// Health, when set, turns /healthz into a readiness report: a JSON
	// body with per-condition booleans, HTTP 503 while any condition
	// holds. Nil preserves the legacy unconditional plain-text "ok".
	Health HealthFunc
	// Tracer, when set, mounts the /trace endpoint (Chrome trace-event
	// JSON, ?id=N lookup).
	Tracer *Tracer
}

// StartAdmin binds addr and serves reg's /metrics (Prometheus text
// format), /healthz, /snapshot (JSON metric dump for the CLI) and
// /debug/pprof/, plus what opts adds: extra endpoints, a readiness source
// for /healthz, and a tracer for /trace. While the admin server runs, a
// runtime health collector refreshes process gauges (goroutines, heap,
// GC pause, scheduler latency) on reg. The serve loop runs in a
// recover-guarded goroutine; Close shuts the listener down and waits for
// the loop to exit.
func StartAdmin(addr string, reg *Registry, opts AdminOptions) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w) // a failed write is the client gone
	})
	mux.Handle("/healthz", HealthzHandler(opts.Health))
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Snapshot())
	})
	builtin := map[string]bool{
		"/metrics": true, "/healthz": true, "/snapshot": true, "/debug/pprof/": true,
		"/debug/pprof/cmdline": true, "/debug/pprof/profile": true,
		"/debug/pprof/symbol": true, "/debug/pprof/trace": true,
	}
	if opts.Tracer != nil {
		mux.Handle("/trace", TraceHandler(opts.Tracer))
		builtin["/trace"] = true
	}
	// pprof goes on the private mux, not http.DefaultServeMux, so the
	// profiler exists only while an admin server is running.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	patterns := make([]string, 0, len(opts.Extra))
	for p := range opts.Extra {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns) // deterministic mount order
	for _, p := range patterns {
		if p == "" || builtin[p] || opts.Extra[p] == nil {
			continue
		}
		mux.Handle(p, opts.Extra[p])
	}

	a := &Admin{
		ln:        ln,
		srv:       &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		collector: StartRuntimeCollector(reg, defaultCollectPeriod),
		done:      make(chan struct{}),
	}
	go func() {
		defer close(a.done)
		defer func() {
			// Last-resort guard: a panicking serve loop must not take the
			// process down (http.Server already isolates handler panics).
			_ = recover()
		}()
		_ = a.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return a, nil
}

// HealthzHandler serves the /healthz contract: with a health source, a
// JSON readiness report (Ready derived as "not quarantined", HTTP 503
// otherwise); without one, the legacy unconditional plain-text "ok".
func HealthzHandler(health HealthFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if health == nil {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
			return
		}
		st := health()
		st.Ready = !st.Quarantined
		w.Header().Set("Content-Type", "application/json")
		if !st.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		_ = enc.Encode(st)
	})
}

// Addr returns the bound listen address (useful with ":0").
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// Close stops the admin server and its runtime collector, waiting for
// both to exit. Idempotent.
func (a *Admin) Close() error {
	var err error
	a.closeOnce.Do(func() {
		a.collector.Close()
		err = a.srv.Close()
		<-a.done
	})
	return err
}
