package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one daemon process of the group.
type proc struct {
	name   string
	path   string
	args   []string
	logDir string
	cmd    *exec.Cmd
	exited chan struct{}
	peakMB float64 // highest VmHWM read from this slot's processes, dead ones included
}

// start launches the process. Its output goes to <logDir>/<name>.log, and
// it is killed if the benchmark dies first.
func (p *proc) start() error {
	logf, err := os.OpenFile(filepath.Join(p.logDir, p.name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(p.path, p.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	p.cmd = cmd
	p.exited = make(chan struct{})
	go func() {
		cmd.Wait() //nolint:errcheck — a killed daemon's exit status is expected
		logf.Close()
		close(p.exited)
	}()
	return nil
}

// pid returns the process id as /proc names it.
func (p *proc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// alive reports whether the process has not exited.
func (p *proc) alive() bool {
	if p.cmd == nil {
		return false
	}
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// samplePeak folds the process's current VmHWM into peakMB.
func (p *proc) samplePeak() {
	if !p.alive() {
		return
	}
	if _, peak, err := procRSS(p.pid()); err == nil && peak > p.peakMB {
		p.peakMB = peak
	}
}

// kill sends SIGKILL and waits until the process has exited.
func (p *proc) kill() error {
	if !p.alive() {
		return nil
	}
	p.samplePeak()
	if err := p.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("kill %s: %w", p.name, err)
	}
	select {
	case <-p.exited:
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("kill %s: still running 10s after SIGKILL", p.name)
	}
}

// group is an F=1 Sift deployment on loopback: three memnoded and two
// siftd processes, built from this checkout's cmd/, all with default
// sizing flags.
type group struct {
	mems     []*proc
	sifts    []*proc
	memAddrs []string
	rpcAddrs []string
	dbgAddrs []string
}

// freePorts reserves n distinct loopback ports by binding them all at once,
// then releases them for the daemons to take.
func freePorts(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// newGroup lays out the processes of a group (nothing runs yet).
func newGroup(binDir, logDir string) (*group, error) {
	addrs, err := freePorts(7)
	if err != nil {
		return nil, err
	}
	g := &group{memAddrs: addrs[0:3], rpcAddrs: addrs[3:5], dbgAddrs: addrs[5:7]}
	for i, a := range g.memAddrs {
		g.mems = append(g.mems, &proc{name: fmt.Sprintf("memnoded%d", i+1),
			path: filepath.Join(binDir, "memnoded"), args: []string{"-addr", a}, logDir: logDir})
	}
	for i := range g.rpcAddrs {
		g.sifts = append(g.sifts, &proc{name: fmt.Sprintf("siftd%d", i+1),
			path: filepath.Join(binDir, "siftd"), logDir: logDir,
			args: []string{"-id", strconv.Itoa(i + 1), "-listen", g.rpcAddrs[i],
				"-mem", strings.Join(g.memAddrs, ","), "-debug-addr", g.dbgAddrs[i]}})
	}
	return g, nil
}

// startMems launches the memory nodes and waits until each accepts.
func (g *group) startMems() error {
	for _, p := range g.mems {
		if err := p.start(); err != nil {
			return err
		}
	}
	for i, a := range g.memAddrs {
		if err := waitListening(a, g.mems[i]); err != nil {
			return err
		}
	}
	return nil
}

// startSifts launches both CPU nodes.
func (g *group) startSifts() error {
	for _, p := range g.sifts {
		if err := p.start(); err != nil {
			return err
		}
	}
	return nil
}

// waitListening polls addr until it accepts a TCP connection.
func waitListening(addr string, p *proc) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if !p.alive() {
			return fmt.Errorf("%s exited during start-up (see its log)", p.name)
		}
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s: %s not listening after 10s", p.name, addr)
}

// all returns every daemon slot.
func (g *group) all() []*proc { return append(append([]*proc(nil), g.mems...), g.sifts...) }

// stop kills every daemon and waits for each to exit.
func (g *group) stop() error {
	var first error
	for _, p := range g.all() {
		if err := p.kill(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// cpu returns the CPU seconds used so far by the live siftd and memnoded
// processes.
func (g *group) cpu() (sift, mem float64) {
	for _, p := range g.sifts {
		if p.alive() {
			c, _ := procCPU(p.pid())
			sift += c
		}
	}
	for _, p := range g.mems {
		if p.alive() {
			c, _ := procCPU(p.pid())
			mem += c
		}
	}
	return sift, mem
}

// peakRSS returns the summed peak resident set of the siftd and memnoded
// slots, each slot counted at the highest peak any of its processes reached.
func (g *group) peakRSS() (sift, mem float64) {
	for _, p := range g.sifts {
		p.samplePeak()
		sift += p.peakMB
	}
	for _, p := range g.mems {
		p.samplePeak()
		mem += p.peakMB
	}
	return sift, mem
}
