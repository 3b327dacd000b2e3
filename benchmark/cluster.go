package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sedna/internal/core"
	"sedna/internal/ring"
	"sedna/internal/transport"
	"sedna/internal/wire"
)

const (
	dataNodes    = 3
	readyTimeout = 30 * time.Second
)

// proc is one cluster process: the benchmark binary re-exec'd in a role.
type proc struct {
	spec   childSpec
	cmd    *exec.Cmd
	stdin  *os.File
	stdout *os.File
	out    *bufio.Reader // over stdout
	stderr *bytes.Buffer
	exited chan struct{} // closed once Wait returned
}

// cluster is the topology every workload runs on: 1 coordination member and
// 3 data nodes, each its own OS process on loopback, in a fresh directory.
type cluster struct {
	dir    string
	seams  bool
	coord  *proc
	nodes  []*proc
	began  time.Time // first process start
	closed bool
}

// live holds every cluster with running processes, so that a signal or a
// panic on the main goroutine can still kill them (see main).
var live struct {
	sync.Mutex
	set map[*cluster]bool
}

func closeLiveClusters() {
	live.Lock()
	var all []*cluster
	for c := range live.set {
		all = append(all, c)
	}
	live.Unlock()
	for _, c := range all {
		c.close()
	}
}

// freeAddrs reserves n distinct loopback ports by binding and releasing
// them. A node's address is its identity in the ring and must survive its
// restart, so the child cannot simply listen on port 0.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startCluster boots the four processes under a fresh directory below root
// and returns once the readiness barrier holds.
func startCluster(root string, seams bool) (*cluster, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "cluster-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, seams: seams}
	live.Lock()
	if live.set == nil {
		live.set = map[*cluster]bool{}
	}
	live.set[c] = true
	live.Unlock()
	if err := c.boot(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) boot() error {
	addrs, err := freeAddrs(1 + dataNodes)
	if err != nil {
		return err
	}
	c.began = time.Now()
	c.coord = &proc{spec: childSpec{role: "coord", addr: addrs[0], seams: c.seams}}
	if err := c.coord.start(); err != nil {
		return err
	}
	// The bootstrap node creates the layout before the others join, or
	// they would find no ring to join.
	for i := 0; i < dataNodes; i++ {
		spec := childSpec{
			role: "node", addr: addrs[1+i], coordAddr: addrs[0], seams: c.seams,
			dataDir: filepath.Join(c.dir, "node"+strconv.Itoa(i)), bootstrap: i == 0,
		}
		c.nodes = append(c.nodes, &proc{spec: spec})
	}
	logf("coord up after %s", time.Since(c.began))
	if err := c.nodes[0].start(); err != nil {
		return err
	}
	logf("bootstrap node up after %s", time.Since(c.began))
	return c.startNodes(c.nodes[1:])
}

// startNodes starts the given nodes concurrently and then waits for the
// whole cluster to pass the readiness barrier.
func (c *cluster) startNodes(nodes []*proc) error {
	errs := make(chan error, len(nodes))
	for _, p := range nodes {
		go func(p *proc) { errs <- p.start() }(p)
	}
	var first error
	for range nodes {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	logf("%d nodes up", len(nodes))
	return c.awaitReady()
}

// awaitReady is the readiness barrier: every node's own ring lists all three
// nodes and gives every vnode three distinct owners. Without it writes land
// on a one-node ring and the numbers measure something else.
func (c *cluster) awaitReady() error {
	caller := transport.NewTCP("")
	defer caller.Close()
	deadline := time.Now().Add(readyTimeout)
	for _, p := range c.nodes {
		for {
			r, err := fetchRing(caller, p.spec.addr)
			if err == nil {
				err = ringComplete(r)
			}
			if err == nil {
				break
			}
			if p.hasExited() {
				return fmt.Errorf("node %s exited before the cluster was ready: %s", p.spec.addr, p.stderr)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster not ready after %s: node %s: %w", readyTimeout, p.spec.addr, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

func fetchRing(caller transport.Caller, addr string) (*ring.Ring, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, err := caller.Call(ctx, addr, transport.Message{Op: core.OpRingGet})
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(resp.Body)
	st, detail := d.U16(), d.Str()
	if d.Err != nil {
		return nil, d.Err
	}
	if st != core.StOK {
		return nil, core.StatusErr(st, detail)
	}
	blob := d.Bytes()
	if d.Err != nil {
		return nil, d.Err
	}
	return ring.DecodeRing(blob)
}

func ringComplete(r *ring.Ring) error {
	if n := len(r.Nodes()); n != dataNodes {
		return fmt.Errorf("ring lists %d nodes, want %d", n, dataNodes)
	}
	for v := 0; v < r.NumVNodes(); v++ {
		seen := map[ring.NodeID]bool{}
		for _, o := range r.Owners(ring.VNodeID(v)) {
			if o != "" {
				seen[o] = true
			}
		}
		if len(seen) != dataNodes {
			return fmt.Errorf("vnode %d has %d owners, want %d", v, len(seen), dataNodes)
		}
	}
	return nil
}

func (c *cluster) nodeAddrs() []string {
	out := make([]string, len(c.nodes))
	for i, p := range c.nodes {
		out[i] = p.spec.addr
	}
	return out
}

func (c *cluster) procs() []*proc { return append([]*proc{c.coord}, c.nodes...) }

// setTracing switches span recording on or off in every process.
func (c *cluster) setTracing(on bool) error {
	line := "trace off"
	if on {
		line = "trace on"
	}
	for _, p := range c.procs() {
		if err := p.command(line); err != nil {
			return err
		}
	}
	return nil
}

// collectSpans has every process write its spans out and reads them back.
func (c *cluster) collectSpans() ([]span, error) {
	var all []span
	for i, p := range c.procs() {
		path := filepath.Join(c.dir, fmt.Sprintf("spans-%d.json", i))
		if err := p.command("dump " + path); err != nil {
			return nil, err
		}
		spans, err := loadSpans(path)
		if err != nil {
			return nil, err
		}
		all = append(all, spans...)
	}
	return all, nil
}

// crashNodes SIGKILLs the three data nodes, as a crash would, and restarts
// them on the same addresses and data directories.
func (c *cluster) crashNodes() error {
	for _, p := range c.nodes {
		p.kill()
	}
	for _, p := range c.nodes {
		p.spec.bootstrap = false
	}
	return c.startNodes(c.nodes)
}

// close kills every process, waits for each to end and removes the
// directory. It is safe to call more than once.
func (c *cluster) close() {
	live.Lock()
	done := c.closed
	c.closed = true
	delete(live.set, c)
	live.Unlock()
	if done {
		return
	}
	for _, p := range c.procs() {
		if p != nil {
			p.kill()
		}
	}
	os.RemoveAll(c.dir)
}

// start launches the process in its own process group and waits for READY.
func (p *proc) start() error {
	// A listener already on the address is a leftover of some earlier run;
	// measuring it instead of this build's code must not happen silently.
	if conn, err := net.DialTimeout("tcp", p.spec.addr, 200*time.Millisecond); err == nil {
		conn.Close()
		return fmt.Errorf("%s %s: a process is already listening there", p.spec.role, p.spec.addr)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"-role", p.spec.role, "-addr", p.spec.addr}
	if p.spec.role == "node" {
		args = append(args, "-coord", p.spec.coordAddr, "-data", p.spec.dataDir)
	}
	if p.spec.bootstrap {
		args = append(args, "-bootstrap")
	}
	if p.spec.seams {
		args = append(args, "-seams")
	}
	p.cmd = exec.Command(exe, args...)
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	p.stderr = &bytes.Buffer{}
	p.cmd.Stderr = p.stderr
	// Plain pipes, not StdinPipe/StdoutPipe: those are closed by Wait, and
	// Wait runs in its own goroutine from the start so that an early exit
	// is seen at once.
	inR, inW, err := os.Pipe()
	if err != nil {
		return err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return err
	}
	p.cmd.Stdin, p.cmd.Stdout = inR, outW
	err = p.cmd.Start()
	inR.Close()
	outW.Close()
	if err != nil {
		inW.Close()
		outR.Close()
		return err
	}
	p.stdin, p.stdout, p.out = inW, outR, bufio.NewReader(outR)
	p.exited = make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(p.exited)
	}()

	ready := make(chan error, 1)
	go func() {
		line, err := p.out.ReadString('\n')
		if err == nil && line != "READY\n" {
			err = fmt.Errorf("unexpected first line %q", line)
		}
		ready <- err
	}()
	select {
	case err = <-ready:
	case <-time.After(readyTimeout):
		err = fmt.Errorf("no READY after %s", readyTimeout)
	}
	if err != nil {
		p.kill()
		return fmt.Errorf("%s %s did not come up: %v: %s", p.spec.role, p.spec.addr, err, p.stderr)
	}
	return nil
}

// kill SIGKILLs the process group and waits until the process has ended.
func (p *proc) kill() {
	if p.exited == nil {
		return // never started
	}
	if !p.hasExited() { // once reaped, the pid may belong to someone else
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	}
	<-p.exited
	p.stdin.Close()
	p.stdout.Close()
}

func (p *proc) hasExited() bool {
	select {
	case <-p.exited:
		return true
	default:
		return false
	}
}

func (p *proc) command(line string) error {
	if _, err := io.WriteString(p.stdin, line+"\n"); err != nil {
		return fmt.Errorf("%s %s: %q: %w", p.spec.role, p.spec.addr, line, err)
	}
	reply, err := p.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("%s %s: %q: %w: %s", p.spec.role, p.spec.addr, line, err, p.stderr)
	}
	if reply = strings.TrimSpace(reply); reply != "ok" {
		return fmt.Errorf("%s %s: %q: %s", p.spec.role, p.spec.addr, line, reply)
	}
	return nil
}

// --- /proc readings (Linux) ---

// procUsage is what the process metrics are computed from.
type procUsage struct {
	cpu    time.Duration // user + system
	ctxsw  int64         // voluntary + involuntary context switches
	rssKiB int64
}

// readUsage reads one process's CPU time from /proc/<pid>/stat (fields 14
// and 15, in clock ticks of 1/100 s on Linux) and its context switches and
// resident set from /proc/<pid>/status.
func readUsage(pid int) (procUsage, error) {
	var u procUsage
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	f := strings.Fields(string(blob[bytes.LastIndexByte(blob, ')')+1:]))
	if len(f) < 13 {
		return u, errors.New("short /proc stat line")
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	u.cpu = time.Duration(utime+stime) * (time.Second / 100)
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		k, v, _ := strings.Cut(line, ":")
		n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		switch k {
		case "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches":
			u.ctxsw += n
		case "VmRSS":
			u.rssKiB = n
		}
	}
	return u, nil
}

// usage sums the readings of the given processes.
func usage(procs []*proc) (procUsage, error) {
	var sum procUsage
	for _, p := range procs {
		u, err := readUsage(p.cmd.Process.Pid)
		if err != nil {
			return sum, err
		}
		sum.cpu += u.cpu
		sum.ctxsw += u.ctxsw
		sum.rssKiB += u.rssKiB
	}
	return sum, nil
}

// dirBytes is the total size of the regular files under the nodes' data
// directories.
func (c *cluster) dirBytes() (int64, error) {
	var total int64
	for _, p := range c.nodes {
		err := filepath.Walk(p.spec.dataDir, func(_ string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				total += info.Size()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
