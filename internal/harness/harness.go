// Package harness boots real daemons for the end-to-end tools
// (cmd/edfsmoke, cmd/edfpromlint): it compiles edfd and edfproxy from
// ./cmd, starts them on ephemeral ports, parses the listen address from
// their startup banner, keeps the tail of each daemon's stderr for
// failure reports, and tears every process down again.
package harness

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/service/client"
)

// TailBuffer is an io.Writer keeping only the last 64 KiB written — a
// daemon's stderr or an event stream — so a failure report carries the
// latest diagnostics without an unbounded buffer on a chatty source. It
// is safe for concurrent use.
type TailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailCap = 64 << 10

// Write appends p, dropping the oldest bytes beyond the cap.
func (t *TailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailCap {
		t.buf = t.buf[len(t.buf)-tailCap:]
	}
	return len(p), nil
}

// String returns the retained bytes.
func (t *TailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// Daemon is one child process with its parsed listen address.
type Daemon struct {
	// Name is the daemon's binary name, as in its banner.
	Name string
	// Addr is the host:port the daemon announced.
	Addr   string
	cmd    *exec.Cmd
	stderr TailBuffer
}

// URL returns the daemon's base URL.
func (d *Daemon) URL() string { return "http://" + d.Addr }

// Kill stops the daemon with SIGKILL — no drain, no goodbye — and
// waits for the process to exit. Killing a stopped daemon is a no-op.
func (d *Daemon) Kill() {
	_ = d.cmd.Process.Kill() // fails only when the process already exited
	_ = d.cmd.Wait()         // the exit status of a killed daemon says nothing
}

// Fleet tracks every daemon it started for teardown and failure
// reporting.
type Fleet struct {
	// Tool prefixes the fleet's report lines, e.g. "edfsmoke".
	Tool string
	// Daemons lists the started daemons in start order.
	Daemons []*Daemon
}

// Start launches a daemon and parses "<name>: listening on <addr>" from
// its stdout. The daemon's stderr is captured for DumpStderr.
func (f *Fleet) Start(ctx context.Context, name, bin string, args ...string) (*Daemon, error) {
	d := &Daemon{Name: name}
	d.cmd = exec.CommandContext(ctx, bin, args...)
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	f.Daemons = append(f.Daemons, d)
	addr, err := listenAddr(stdout, name+": listening on ")
	if err != nil {
		return nil, fmt.Errorf("%s startup: %w", name, err)
	}
	d.Addr = addr
	return d, nil
}

// StopAll kills every daemon of the fleet.
func (f *Fleet) StopAll() {
	for _, d := range f.Daemons {
		d.Kill()
	}
}

// DumpStderr prints every daemon's captured stderr: the non-2xx status
// of a failed request alone says nothing, the daemon's own log usually
// says everything.
func (f *Fleet) DumpStderr(w io.Writer) {
	for _, d := range f.Daemons {
		out := strings.TrimSpace(d.stderr.String())
		if out == "" {
			fmt.Fprintf(w, "%s: %s (%s): no stderr output\n", f.Tool, d.Name, d.Addr)
			continue
		}
		fmt.Fprintf(w, "%s: --- %s (%s) stderr ---\n%s\n%s: --- end %s stderr ---\n",
			f.Tool, d.Name, d.Addr, out, f.Tool, d.Name)
	}
}

// listenAddr parses a daemon's startup banner for the resolved address.
func listenAddr(stdout io.Reader, prefix string) (string, error) {
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			go io.Copy(io.Discard, stdout) // keep the pipe drained until the daemon exits
			addr, _, _ := strings.Cut(rest, " ")
			return addr, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("daemon exited before announcing its address")
}

// BuildTool compiles ./cmd/<name> into dir and returns the binary path.
func BuildTool(ctx context.Context, dir, name string) (string, error) {
	bin := filepath.Join(dir, name)
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/"+name)
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %s: %v\n%s", name, err, out)
	}
	return bin, nil
}

// WaitHealthy polls /healthz until the endpoint answers, giving up after
// ten seconds or when ctx ends.
func WaitHealthy(ctx context.Context, c *client.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		err := c.Healthz(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("daemon never became healthy: %w", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
}
