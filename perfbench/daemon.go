package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// live holds the daemons started and not yet stopped, so an interrupted
// run can stop them before it exits.
var live = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

// stopAll stops every live daemon.
func stopAll() {
	live.Lock()
	var ds []*daemon
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		_ = d.stop()
	}
}

// daemon is one running twsimd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan error
	log    strings.Builder // the daemon's standard error, for failure reports
}

// startDaemon launches twsimd on dir with a kernel-chosen port and returns
// once /healthz answers. The process is stopped on any error.
func startDaemon(bin, dir string, flags []string) (*daemon, error) {
	args := append([]string{"-db", dir, "-addr", "127.0.0.1:0"}, flags...)
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan error, 1)}
	// Should this process die without stopping the daemon, the kernel
	// stops it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting twsimd: %w", err)
	}
	live.Lock()
	live.set[d] = true
	live.Unlock()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.log.WriteString(line + "\n")
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		d.exited <- d.cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.exited:
		d.exited <- err
		return nil, fmt.Errorf("twsimd exited during start-up (%v):\n%s", err, d.log.String())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("twsimd did not report its address within 60s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("twsimd /healthz did not answer: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found")
}

// cpuSeconds is the process's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100, nil // USER_HZ is 100 on Linux
}

// stop sends SIGTERM (twsimd flushes and closes its database on it) and
// waits for the process to exit, killing it after 30 seconds.
func (d *daemon) stop() error {
	if d == nil || d.cmd.Process == nil {
		return nil
	}
	defer func() {
		live.Lock()
		delete(live.set, d)
		live.Unlock()
	}()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	select {
	case err := <-d.exited:
		d.exited <- err
		if err != nil {
			return fmt.Errorf("twsimd exit: %v\n%s", err, d.log.String())
		}
		return nil
	case <-ctx.Done():
		_ = d.cmd.Process.Kill()
		err := <-d.exited
		d.exited <- err
		return errors.New("twsimd did not stop within 30s; killed")
	}
}
