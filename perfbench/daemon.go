package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one burstd child process serving a store directory on fixed
// loopback ports (HTTP and HBP1), with its stderr captured for failure
// reports.
type daemon struct {
	bin, dir, tiers    string
	httpAddr, wireAddr string
	log                *tailBuffer

	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// tailBuffer keeps the last few KiB written to it; burstd's stderr goes
// here so a failed check can print it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailMax = 16 << 10

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if len(b.buf) > tailMax {
		b.buf = append(b.buf[:0], b.buf[len(b.buf)-tailMax:]...)
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

// freeAddrs returns two distinct loopback addresses no listener holds
// right now: both listeners stay open until both ports are picked.
func freeAddrs() (httpAddr, wireAddr string, err error) {
	h, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", fmt.Errorf("pick a port: %w", err)
	}
	defer h.Close()
	w, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", fmt.Errorf("pick a port: %w", err)
	}
	defer w.Close()
	return h.Addr().String(), w.Addr().String(), nil
}

func newDaemon(bin, dir, tiers string, log *tailBuffer) (*daemon, error) {
	h, w, err := freeAddrs()
	if err != nil {
		return nil, err
	}
	return &daemon{bin: bin, dir: dir, tiers: tiers, httpAddr: h, wireAddr: w, log: log}, nil
}

// args is burstd's command line: an empty -k store under the benchmark's
// fixed sketch parameters and the workload's decay ladder, fsync on every
// commit, checkpoints only at shutdown and the scrubber off, so background
// work is exactly seal, compaction and decay.
func (d *daemon) args() []string {
	return []string{
		"-addr", d.httpAddr, "-wire-addr", d.wireAddr,
		"-k", strconv.Itoa(eventSpace), "-gamma", strconv.FormatFloat(gamma, 'g', -1, 64),
		"-snapshots", d.dir, "-wal-sync", "always", "-decay-tiers", d.tiers,
		"-checkpoint", "0", "-scrub-interval", "-1s",
	}
}

// errPortTaken is a burstd that exited at start because another process
// bound one of its ports after freeAddrs picked it.
var errPortTaken = errors.New("burstd exited before it was ready: port taken")

// start launches burstd and waits until /readyz answers 200. If another
// process took a port in the meantime, it picks new ports and tries again.
func (d *daemon) start() error {
	for attempt := 1; ; attempt++ {
		err := d.launch()
		if !errors.Is(err, errPortTaken) || attempt == 3 {
			return err
		}
		if d.httpAddr, d.wireAddr, err = freeAddrs(); err != nil {
			return err
		}
	}
}

func (d *daemon) launch() error {
	if d.cmd != nil {
		return errors.New("daemon already running")
	}
	cmd := exec.Command(d.bin, d.args()...)
	cmd.Stdout = d.log
	cmd.Stderr = d.log
	// If perfbench dies without reaching kill (a signal, a crash), the
	// kernel SIGKILLs burstd, so no server outlives the run. Pdeathsig
	// fires when the forking thread exits; nothing here locks a goroutine
	// to a thread, so the runtime keeps that thread until the process ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start burstd: %w", err)
	}
	d.cmd = cmd
	d.done = make(chan struct{})
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status of a killed child carries nothing
		close(d.done)
	}()
	client := &http.Client{Timeout: time.Second}
	url := "http://" + d.httpAddr + "/readyz"
	for {
		select {
		case <-d.done:
			d.cmd = nil
			if strings.Contains(lastLines(d.log.String(), 2), "address already in use") {
				return errPortTaken
			}
			return fmt.Errorf("burstd exited before it was ready")
		default:
		}
		if resp, err := client.Get(url); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.kill()
			return fmt.Errorf("burstd not ready after 60s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// kill SIGKILLs the process and waits for it to be reaped.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGKILL) //nolint:errcheck // already exited is fine
	<-d.done
	d.cmd = nil
}

// peakRSS reads burstd's high-water resident set size in bytes.
func (d *daemon) peakRSS() (int64, error) {
	if d.cmd == nil {
		return 0, errors.New("daemon not running")
	}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

// cpuTime sums the time burstd's threads have spent running on a CPU
// (/proc/<pid>/task/*/schedstat, in nanoseconds). Unlike wall time it
// leaves out the time burstd waited for a CPU — including time the
// hypervisor gave to other guests — so it shows how much work a phase
// cost rather than how busy the machine was.
func (d *daemon) cpuTime() (time.Duration, error) {
	if d.cmd == nil {
		return 0, errors.New("daemon not running")
	}
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for thread %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse schedstat: %w", err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// dirBytes sums the sizes of the regular files under dir: the store's
// on-disk footprint (segments, manifest, write-ahead log).
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.Type().IsRegular() {
			info, err := de.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// lastLines returns up to n trailing lines of s.
func lastLines(s string, n int) string {
	lines := bytes.Split([]byte(strings.TrimRight(s, "\n")), []byte("\n"))
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return string(bytes.Join(lines, []byte("\n")))
}
