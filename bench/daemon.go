package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/odeprotod from the checkout the benchmark runs
// in. The go tool's cache makes every build after the first a relink
// check; build time is never part of setup_s.
func buildDaemon(ctx context.Context, outDir string) (string, error) {
	bin := filepath.Join(outDir, "odeprotod")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/odeprotod")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/odeprotod: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running odeprotod process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	dataDir string
	boot    time.Duration // exec to the first 200 from /v1/healthz
}

// bootPoll is how often startDaemon looks for the address and then for a
// healthy answer. A bare boot takes about 5 ms, so polling it with
// millisecond sleeps (which overshoot, see spinMargin) made setup_s jump
// between 5.6 and 6.6 ms; waitUntil polls the clock instead.
const bootPoll = 200 * time.Microsecond

// startDaemon execs the daemon with default flags plus -data on
// 127.0.0.1:0, in its own process group, stderr appended to logPath, and
// waits until /v1/healthz answers 200. The bound address is read from the
// "serving" line of the daemon's structured log.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// The child holds its own descriptor once started.
	defer func() { _ = logFile.Close() }()
	from, err := logFile.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir)
	cmd.Stderr = logFile
	cmd.SysProcAttr = daemonProcAttr()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logPath: logPath, dataDir: dataDir}
	deadline := start.Add(30 * time.Second)
	for d.addr == "" {
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon did not log its address within 30s (see %s)", logPath)
		}
		waitUntil(time.Now().Add(bootPoll))
		d.addr = servingAddr(logPath, from)
	}
	for {
		resp, err := http.Get("http://" + d.addr + "/v1/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon at %s not healthy within 30s: %v", d.addr, err)
		}
		waitUntil(time.Now().Add(bootPoll))
	}
	d.boot = time.Since(start)
	return d, nil
}

// servingAddr scans the log written since offset from for the daemon's
// "serving" record and returns its addr field ("" until it appears).
func servingAddr(logPath string, from int64) string {
	f, err := os.Open(logPath)
	if err != nil {
		return ""
	}
	defer func() { _ = f.Close() }()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return ""
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return ""
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var rec struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.Msg == "serving" {
			return rec.Addr
		}
	}
	return ""
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the daemon down the way an operator would (SIGTERM, so the
// store closes cleanly and a restart replays a complete WAL) and waits for
// the process to end, killing the group if it has not within 15 s.
func (d *daemon) stop() error {
	if err := signalGroup(d.pid(), syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		_ = signalGroup(d.pid(), syscall.SIGKILL)
		<-done
		return errors.New("daemon ignored SIGTERM for 15s; killed")
	}
}

// kill ends the daemon's process group at once and reaps it. Safe after
// stop: signalling and waiting on a reaped process only return errors.
func (d *daemon) kill() {
	_ = signalGroup(d.pid(), syscall.SIGKILL)
	_ = d.cmd.Wait()
}

// clockTick is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// parseProcStat extracts user and system CPU time from the content of
// /proc/<pid>/stat. The command name (field 2) may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStat(data string) (user, sys time.Duration, err error) {
	k := strings.LastIndexByte(data, ')')
	if k < 0 {
		return 0, 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(data[k+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return time.Duration(ut) * clockTick, time.Duration(st) * clockTick, nil
}

// parseProcStatusKB returns a kB-valued field (VmHWM, VmRSS) of the
// content of /proc/<pid>/status.
func parseProcStatusKB(data, field string) (int64, error) {
	for _, line := range strings.Split(data, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != field {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: %s: %q", field, rest)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", field)
}

// cpu reads the daemon's cumulative user and system CPU time.
func (d *daemon) cpu() (user, sys time.Duration, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, 0, err
	}
	return parseProcStat(string(data))
}

// rssPeakMB reads the daemon's resident-set high-water mark.
func (d *daemon) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	kb, err := parseProcStatusKB(string(data), "VmHWM")
	return float64(kb) / 1024, err
}

// dirBytes sums the sizes of the regular files under dir — WAL segments,
// result blobs and their .gz siblings — and, apart, of the .gz files.
func dirBytes(dir string) (total, gz int64, err error) {
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		// The daemon renames its temporary files and drops compacted
		// segments while the walk runs: a file that has gone is not there.
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		total += info.Size()
		if strings.HasSuffix(path, ".gz") {
			gz += info.Size()
		}
		return nil
	})
	return total, gz, err
}
