package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// now is the harness's one wall-clock read: every latency, set-up time and
// span boundary goes through it.
func now() time.Time {
	return time.Now() //odrc:allow clock — benchmark harness measuring the programs under test from outside, not engine host work
}

func since(t time.Time) time.Duration { return now().Sub(t) }

// timeIt runs fn and returns how long it took.
func timeIt(fn func()) time.Duration {
	t := now()
	fn()
	return since(t)
}

// spawn is the harness's one goroutine start: the second load-generator
// client and the bounded wait on a child process. The returned func blocks
// until fn has returned.
func spawn(fn func()) (wait func()) {
	done := make(chan struct{})
	go func() { //odrc:allow rawgo — load-generator client / child-process wait, outside the engine's worker pool by design
		defer close(done)
		fn()
	}()
	return func() { <-done }
}

// env is where one benchmark run lives: the repository it builds from, the
// binaries under test, and a scratch directory inside the checkout.
type env struct {
	root   string // repository root
	bin    string // directory holding the built odrc and odrcd
	work   string // scratch for GDS files and ready-files; removed by close
	buildS float64
}

// newEnv builds the real binaries from source (a no-op when up to date) and
// creates the scratch directory.
func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(build, "bin")}
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	t := now()
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/odrc", "./cmd/odrcd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/odrc ./cmd/odrcd: %v\n%s", err, out)
	}
	e.buildS = since(t).Seconds()
	if e.work, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() { _ = os.RemoveAll(e.work) } // scratch only; nothing to recover if removal fails

// procResult is one finished child process.
type procResult struct {
	stdout   []byte
	stderr   string
	wall     time.Duration // exec -> exit
	maxRSSMB float64       // ru_maxrss
	exit     int
}

// odrc runs the batch CLI once. A non-zero exit is not an error here: the
// caller counts it as a failed operation.
func (e *env) odrc(args ...string) (procResult, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(filepath.Join(e.bin, "odrc"), args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	t := now()
	err := cmd.Run()
	res := procResult{stdout: out.Bytes(), stderr: errb.String(), wall: since(t)}
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		return res, fmt.Errorf("odrc %s: %w", strings.Join(args, " "), err)
	}
	res.exit = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// daemon is one odrcd child on an ephemeral loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	stderr  bytes.Buffer
	http    *http.Client
	stopped bool
	stopErr error
}

const (
	readyWait = 10 * time.Second
	drainWait = 40 * time.Second // odrcd's own -drain default is 30s
)

// startDaemon spawns odrcd with default flags and waits, bounded, for its
// ready-file.
func (e *env) startDaemon() (*daemon, error) {
	ready, err := os.CreateTemp(e.work, "ready-")
	if err != nil {
		return nil, err
	}
	ready.Close()
	if err := os.Remove(ready.Name()); err != nil {
		return nil, err
	}
	d := &daemon{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
	d.cmd = exec.Command(filepath.Join(e.bin, "odrcd"), "-addr", "127.0.0.1:0", "-ready-file", ready.Name(), "-quiet")
	d.cmd.Stderr = &d.stderr
	// Should the harness itself be killed mid-run, the kernel takes the
	// daemon down with it rather than leaving an orphan behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := now().Add(readyWait)
	for now().Before(deadline) {
		if b, err := os.ReadFile(ready.Name()); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = d.cmd.Process.Kill() // already failing; the wait below reaps it
	_ = d.cmd.Wait()
	return nil, fmt.Errorf("odrcd not ready within %v: %s", readyWait, d.stderr.String())
}

// stop drains odrcd with SIGTERM and requires a clean exit 0 within the
// drain budget; anything else is a benchmark failure. Calling it again
// returns the first result, so callers defer it for their error paths and
// call it explicitly where the result counts.
func (d *daemon) stop() error {
	if !d.stopped {
		d.stopped, d.stopErr = true, d.drain()
	}
	return d.stopErr
}

func (d *daemon) drain() error {
	d.http.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	var werr error
	wait := spawn(func() { werr = d.cmd.Wait() })
	timer := time.AfterFunc(drainWait, func() { _ = d.cmd.Process.Kill() }) // a kill surfaces as a non-zero exit below
	wait()
	timer.Stop()
	if werr != nil {
		return fmt.Errorf("odrcd exit after SIGTERM: %v: %s", werr, d.stderr.String())
	}
	return nil
}

// peakRSSMB reads the daemon's high-water RSS from /proc.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// reply is one HTTP response with its client-side latency (request sent ->
// body fully read).
type reply struct {
	status int
	body   []byte
	hdr    http.Header
	lat    time.Duration
}

// hdrInt reads an integer X-Odrc-* header; absent or malformed reads 0,
// which callers treat as "not reported".
func (r reply) hdrInt(key string) int64 {
	n, _ := strconv.ParseInt(r.hdr.Get(key), 10, 64)
	return n
}

// hdrUS reads an X-Odrc-*-Us header as a duration.
func (r reply) hdrUS(key string) time.Duration {
	return time.Duration(r.hdrInt(key)) * time.Microsecond
}

func (d *daemon) post(path, body string) (reply, error) {
	t := now()
	resp, err := d.http.Post(d.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: b, hdr: resp.Header, lat: since(t)}, nil
}

// getJSON decodes a GET endpoint's body into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
