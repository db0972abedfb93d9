package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running ldpserver process.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	log    string
	exited chan struct{}
	err    error
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches bin with args plus -addr on a free loopback port.
// Its stderr goes to logPath. The process dies with the benchmark even if
// the benchmark is killed.
func startServer(bin, addr string, args []string, logPath string) (*serverProc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, url: "http://" + addr, log: logPath, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		lf.Close()
		close(s.exited)
	}()
	return s, nil
}

// probeClient polls readiness; each poll is bounded so a wedged listener
// cannot stall set-up.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// waitReady polls /readyz until it answers 200 (and, when cond is set,
// until cond holds), failing if the process exits or the deadline passes.
func (s *serverProc) waitReady(deadline time.Time, cond func() (bool, error)) error {
	start := time.Now()
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("server %s exited before ready: %v\n%s", s.url, s.err, s.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %s not ready in time\n%s", s.url, s.logTail())
		}
		resp, err := probeClient.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if cond == nil {
					return nil
				}
				ok, err := cond()
				if err != nil {
					return err
				}
				if ok {
					return nil
				}
			}
		}
		// Poll at about 1% of the time waited so far: fine enough to time a
		// 5 ms set-up, sparse enough not to compete with a long replay for
		// the CPUs.
		sleepUntil(time.Now().Add(min(max(time.Since(start)/100, 100*time.Microsecond), 5*time.Millisecond)))
	}
}

// stop sends SIGTERM (the graceful drain: final push, WAL commit) and
// waits for the process to exit, killing it if it overstays.
func (s *serverProc) stop() error {
	select {
	case <-s.exited:
		return s.exitErr()
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.exitErr()
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("server %s ignored SIGTERM for 30s", s.url)
	}
}

func (s *serverProc) exitErr() error {
	if s.err != nil {
		return fmt.Errorf("server %s: %v\n%s", s.url, s.err, s.logTail())
	}
	return nil
}

// kill stops the process without a drain and waits for it.
func (s *serverProc) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// logTail returns the end of the server's log for error messages.
func (s *serverProc) logTail() string {
	b, err := os.ReadFile(s.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime reads the process's user+system CPU time from /proc/<pid>/stat.
func (s *serverProc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// statsBody is the JSON body of GET /v1/stats.
type statsBody struct {
	N     int64            `json:"n"`
	Tasks map[string]int64 `json:"tasks"`
}

// getJSON fetches url with c and decodes a 200 JSON body into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// statsN returns the server's aggregate report count.
func statsN(c *http.Client, base string) (int64, error) {
	var st statsBody
	_, err := getJSON(context.Background(), c, base+"/v1/stats", &st)
	return st.N, err
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The Go
// timer wakes a goroutine up to about a millisecond late when the process
// is otherwise idle, which would swamp the few-millisecond set-up times
// the readiness polls measure; a blocking nanosleep wakes within the
// kernel's timer slack.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
