package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The host-speed reference. On a shared 2-vCPU VM the program's raw CPU
// per request and median latency drift together by 15–30% over a minute
// or two, with no change to the program; ten runs of one workload span
// several of those swings. A fixed stdlib-only HTTP/JSON service on
// loopback, driven closed-loop by two clients like the workloads, drifts
// with them (its CPU per request correlated 0.66–0.99 with the program's
// over sets of ten runs), while a hash-and-sort kernel does not. So the benchmark runs that service in a
// child process and gives it a short burst after every segment of the
// timed phase: the gated figures divide the segment's CPU per request and
// each of its latencies by the burst's, a cost in units of the host's
// speed at that moment. The child shares nothing with the program but the
// host, so no program change moves the reference.

// referenceFlag makes the binary serve the reference: it reads request
// counts from standard input, one per line, and answers each with one
// burst's "<cpu ms per request> <p50 ms>" line until the input closes.
const referenceFlag = "--reference"

// refBurstRequests is the size of one burst: about 0.1 s on a 2-vCPU VM,
// against 0.5 s segments.
const refBurstRequests = 600

// refSample is what one reference burst measured, in milliseconds.
type refSample struct{ cpuPerOp, p50 float64 }

// refProbe is the parent's handle on the reference process.
type refProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startProbe starts the reference process and runs one burst it
// discards, so connections and the child's heap are warm.
func startProbe() (*refProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	cmd := exec.Command(exe, referenceFlag)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	p := &refProbe{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	if _, err := p.burst(); err != nil {
		return nil, errors.Join(err, p.close())
	}
	return p, nil
}

// burst runs one reference burst and returns what it measured.
func (p *refProbe) burst() (refSample, error) {
	if _, err := fmt.Fprintln(p.in, refBurstRequests); err != nil {
		return refSample{}, fmt.Errorf("reference: %w", err)
	}
	if !p.out.Scan() {
		return refSample{}, fmt.Errorf("reference: no answer: %v", p.out.Err())
	}
	var s refSample
	if _, err := fmt.Sscan(p.out.Text(), &s.cpuPerOp, &s.p50); err != nil {
		return refSample{}, fmt.Errorf("reference: %q: %w", p.out.Text(), err)
	}
	return s, nil
}

// close ends the reference process and waits for it: it exits when its
// input closes. A child that does not exit within ten seconds is killed.
func (p *refProbe) close() error {
	p.in.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		return fmt.Errorf("reference: killed after its input closed: %w", <-done)
	}
}

// serveReference is the reference process: it boots the service, then
// answers each request count read from in with one burst's figures.
func serveReference(in io.Reader, out io.Writer) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reference:", err)
		return 1
	}
	srv := &http.Server{Handler: http.HandlerFunc(refHandle)}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String() + "/"
	bodies := refBodies()
	cs := make([]*http.Client, clients)
	for i := range cs {
		cs[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
		defer cs[i].CloseIdleConnections()
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		n, err := strconv.Atoi(sc.Text())
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "reference: bad request count %q\n", sc.Text())
			return 1
		}
		s, err := refRun(cs, url, bodies, n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reference:", err)
			return 1
		}
		fmt.Fprintf(out, "%g %g\n", s.cpuPerOp, s.p50)
	}
	return 0
}

// refRun sends n requests closed-loop from the clients and measures the
// process's CPU per request and the median latency.
func refRun(cs []*http.Client, url string, bodies [][]byte, n int) (refSample, error) {
	lat := make([]int64, n)
	var mu sync.Mutex
	var first error
	cpu0 := cpuTime()
	runJobs(len(cs), 0, n, func(w, j int) {
		t0 := time.Now()
		err := refCall(cs[w], url, bodies[j%len(bodies)])
		lat[j] = time.Since(t0).Nanoseconds()
		if err != nil {
			mu.Lock()
			first = cmp.Or(first, err)
			mu.Unlock()
		}
	})
	cpu := cpuTime() - cpu0
	if first != nil {
		return refSample{}, first
	}
	slices.Sort(lat)
	return refSample{
		cpuPerOp: float64(cpu.Nanoseconds()) / 1e6 / float64(n),
		p50:      float64(sortedPercentile(lat, 0.5)) / 1e6,
	}, nil
}

func refCall(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	var r refReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// refTask is one sporadic task of a reference request.
type refTask struct{ C, D, T int64 }

type refReply struct {
	U      string
	Demand int64
}

// refHandle decodes a task set, sums its utilization exactly and
// evaluates its demand bound at a fixed grid of points: JSON, big.Rat
// and integer arithmetic, the kinds of work the program's request path
// does, in the standard library only.
func refHandle(w http.ResponseWriter, r *http.Request) {
	var ts []refTask
	if err := json.NewDecoder(r.Body).Decode(&ts); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u := new(big.Rat)
	for _, t := range ts {
		u.Add(u, big.NewRat(t.C, t.T))
	}
	var worst int64
	for at := int64(1); at < 3000; at += 7 {
		var d int64
		for _, t := range ts {
			if at >= t.D {
				d += ((at-t.D)/t.T + 1) * t.C
			}
		}
		worst = max(worst, d-at)
	}
	json.NewEncoder(w).Encode(refReply{U: u.RatString(), Demand: worst})
}

// refBodies are the reference's fixed request bodies: 64 task sets of 25
// tasks from a fixed xorshift stream.
func refBodies() [][]byte {
	x := uint32(2463534242)
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return int64(x)
	}
	bodies := make([][]byte, 64)
	for i := range bodies {
		ts := make([]refTask, 25)
		for j := range ts {
			t := 100 + next()%10000
			c := 1 + next()%(t/30+1)
			ts[j] = refTask{C: c, D: t - next()%(t-c+1)/3, T: t}
		}
		bodies[i], _ = json.Marshal(ts) // a slice of int64 structs always encodes
	}
	return bodies
}
