package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one dpserver process spawned with the shipped defaults and a
// fresh state directory.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  *os.File
	done chan struct{} // closed once the stdout drain has ended
}

// startServer spawns bin and returns once the server has printed its
// "listening on" line; readiness is read from that line, never polled.
func startServer(bin, stateDir, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state-dir", stateDir,
		"-budget", strconv.FormatFloat(budget, 'g', -1, 64))
	cmd.Stderr = logf
	// If the driver dies before it can stop the server, the kernel kills
	// the server too, so no run leaves a process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, log: logf}
	br := bufio.NewReader(out)
	for s.base == "" {
		line, err := br.ReadString('\n')
		fmt.Fprint(logf, line)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("dpserver exited before listening (see %s): %w", logPath, err)
		}
		if rest, ok := strings.CutPrefix(line, "dpserver listening on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			s.base = "http://" + addr
		}
	}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_, _ = io.Copy(logf, br)
	}()
	return s, nil
}

// stop asks the server to shut down gracefully and waits for it to exit,
// killing it if it has not exited within ten seconds.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
	if s.done != nil {
		select {
		case <-s.done:
		case <-time.After(time.Second):
		}
	}
	s.log.Close()
}

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuSeconds returns the server's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return (ut + st) / clockTick, nil
}

// rssPeakMB returns the server's peak resident set (VmHWM) in MiB.
func (s *server) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads /metrics into a map keyed by series (name plus labels).
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics parses the Prometheus text exposition format.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// metricDelta is after−before summed over every series of the metric name
// whose labels contain match (empty matches all).
func metricDelta(before, after map[string]float64, name, match string) float64 {
	d := 0.0
	for k, v := range after {
		series, labels, _ := strings.Cut(k, "{")
		if series == name && strings.Contains(labels, match) {
			d += v - before[k]
		}
	}
	return d
}
