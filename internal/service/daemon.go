package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Daemon is the process shell edfd and edfproxy share: a JSON logger on
// stderr, one listener served until SIGINT or SIGTERM and then drained,
// and net/http/pprof on its own opt-in address. Each main keeps only its
// flags, its configuration and its banner.
type Daemon struct {
	// Log is the daemon's structured logger; diagnostics go there, the
	// stdout banner line stays printf-style for scripts.
	Log *slog.Logger

	name      string // prefixes the banner line and fatal errors
	debugAddr string
	signals   context.Context
	unnotify  context.CancelFunc
}

// NewDaemon builds the shell's logger at level ("debug", "info", "warn"
// or "error"; a bad level exits 2) and catches SIGINT and SIGTERM from
// here on, so a signal during boot still drains once serving starts.
// debugAddr, when not empty, serves net/http/pprof.
func NewDaemon(name, level, debugAddr string) *Daemon {
	d := &Daemon{name: name, debugAddr: debugAddr}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		d.Exit(2, fmt.Errorf("bad -log-level %q: %w", level, err))
	}
	d.Log = slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	d.signals, d.unnotify = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return d
}

// Exit prints err after the daemon's name on stderr and exits with code:
// 2 for a usage error, 1 otherwise.
func (d *Daemon) Exit(code int, err error) {
	fmt.Fprintln(os.Stderr, d.name+":", err)
	os.Exit(code)
}

// Listen listens on addr or exits 1. An explicit listener resolves ":0"
// to a real port before the banner prints, so scripts (make smoke,
// make smoke-cluster) can parse the address.
func (d *Daemon) Listen(addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		d.Exit(1, err)
	}
	return ln
}

// Serve prints the banner "<name>: listening on <addr> <detail>" to
// stdout, logs attrs, and serves h on ln until SIGINT or SIGTERM. Then
// it calls closeStreams, which must end the daemon's open SSE streams
// (Shutdown would otherwise wait its full timeout on streams that never
// finish), and drains in-flight requests for up to 15 s. A serve or
// drain failure exits 1.
func (d *Daemon) Serve(ln net.Listener, h http.Handler, closeStreams func(), detail string, attrs ...any) {
	defer d.unnotify()
	if d.debugAddr != "" {
		go d.serveDebug()
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("%s: listening on %s %s\n", d.name, ln.Addr(), detail)
		d.Log.Info("listening", append([]any{"addr", ln.Addr().String()}, attrs...)...)
		errc <- hs.Serve(ln)
	}()
	select {
	case err := <-errc:
		d.Log.Error("serve failed", "err", err)
		os.Exit(1)
	case <-d.signals.Done():
	}
	d.Log.Info("shutting down")
	closeStreams()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		d.Log.Error("shutdown failed", "err", err)
		os.Exit(1)
	}
}

// serveDebug exposes net/http/pprof on its own address, keeping
// profiling off the public API mux.
func (d *Daemon) serveDebug() {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d.Log.Info("debug mux listening", "addr", d.debugAddr)
	if err := http.ListenAndServe(d.debugAddr, mux); err != nil {
		d.Log.Error("debug mux failed", "err", err)
	}
}
