//go:build linux

package transport

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"syscall"
)

// On Linux the reader stage is a pool of epoll event loops: each shard owns
// one epoll instance and multiplexes its share of the connections, so 10k
// idle connections cost 10k fds but only Readers goroutines. Sockets stay
// in non-blocking mode (the Go runtime already sets that) and we read
// through syscall.RawConn with a callback that always reports ready, which
// keeps the runtime's netpoller from parking the goroutine — readiness is
// our epoll's business, not the runtime's.

type readerPool struct {
	shards []*pollShard
	next   uint64 // round-robin assignment; mutated under each add's shard lock-free path
	mu     sync.Mutex
}

type pollShard struct {
	srv  *stagedServer
	epfd int
	// ep is epfd registered with the runtime's netpoller: an idle shard
	// parks on it, so its wait holds neither a P nor a thread.
	ep    *os.File
	epc   syscall.RawConn
	wakeR int // read end of the self-pipe used to interrupt the wait
	wakeW int

	mu     sync.Mutex
	conns  map[int]*sconn
	closed bool
}

func newReaderPool(s *stagedServer, n int) (*readerPool, error) {
	rp := &readerPool{shards: make([]*pollShard, 0, n)}
	for i := 0; i < n; i++ {
		sh, err := newPollShard(s)
		if err != nil {
			rp.close()
			return nil, err
		}
		rp.shards = append(rp.shards, sh)
		s.readerWG.Add(1)
		s.t.wg.Add(1)
		s.t.goros.Add(1)
		go sh.loop()
	}
	return rp, nil
}

func newPollShard(s *stagedServer) (*pollShard, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("transport: epoll_create1: %w", err)
	}
	// A non-blocking fd handed to os.NewFile is registered with the
	// runtime's netpoller; an epoll instance reports readable while it
	// has events ready.
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return nil, fmt.Errorf("transport: epoll nonblock: %w", err)
	}
	ep := os.NewFile(uintptr(epfd), "epoll")
	epc, err := ep.SyscallConn()
	if err != nil {
		ep.Close()
		return nil, fmt.Errorf("transport: epoll rawconn: %w", err)
	}
	var pipe [2]int
	if err := syscall.Pipe2(pipe[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		ep.Close()
		return nil, fmt.Errorf("transport: pipe2: %w", err)
	}
	sh := &pollShard{srv: s, epfd: epfd, ep: ep, epc: epc, wakeR: pipe[0], wakeW: pipe[1], conns: map[int]*sconn{}}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(sh.wakeR)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, sh.wakeR, &ev); err != nil {
		ep.Close()
		syscall.Close(pipe[0])
		syscall.Close(pipe[1])
		return nil, fmt.Errorf("transport: epoll_ctl(wake): %w", err)
	}
	return sh, nil
}

// add registers a connection on the next shard round-robin.
func (rp *readerPool) add(sc *sconn) error {
	tc, ok := sc.conn.(syscall.Conn)
	if !ok {
		return fmt.Errorf("transport: %T does not expose a raw fd", sc.conn)
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return err
	}
	fd := -1
	if cerr := rc.Control(func(f uintptr) { fd = int(f) }); cerr != nil {
		return cerr
	}
	sc.rc, sc.fd = rc, fd

	rp.mu.Lock()
	sh := rp.shards[rp.next%uint64(len(rp.shards))]
	rp.next++
	rp.mu.Unlock()
	return sh.register(sc)
}

func (rp *readerPool) close() {
	for _, sh := range rp.shards {
		sh.shutdown()
	}
}

func (sh *pollShard) register(sc *sconn) error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return ErrClosed
	}
	// Detach must remove the epoll registration and the map entry BEFORE
	// the fd is closed, or a recycled fd number could alias a dead sconn.
	// Assigned inside the critical section that publishes the sconn: every
	// later holder (the loop's map lookup, goroutines spawned after add
	// returns) observes it.
	sc.detach = func() { sh.forget(sc) }
	sh.conns[sc.fd] = sc
	sh.mu.Unlock()
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP, Fd: int32(sc.fd)}
	if err := syscall.EpollCtl(sh.epfd, syscall.EPOLL_CTL_ADD, sc.fd, &ev); err != nil {
		sh.forget(sc)
		return err
	}
	return nil
}

// forget is the detach hook: it unmaps the connection and deregisters its
// fd while the fd is still open.
func (sh *pollShard) forget(sc *sconn) {
	sh.mu.Lock()
	if cur, ok := sh.conns[sc.fd]; ok && cur == sc {
		delete(sh.conns, sc.fd)
	}
	sh.mu.Unlock()
	// Best-effort: the fd may already be mid-close elsewhere.
	syscall.EpollCtl(sh.epfd, syscall.EPOLL_CTL_DEL, sc.fd, nil)
}

// shutdown asks the loop to exit via the self-pipe; the loop owns the fds
// and closes them on the way out.
func (sh *pollShard) shutdown() {
	sh.mu.Lock()
	already := sh.closed
	sh.closed = true
	sh.mu.Unlock()
	if already {
		return
	}
	var one = [1]byte{1}
	syscall.Write(sh.wakeW, one[:])
}

func (sh *pollShard) loop() {
	s := sh.srv
	defer s.readerWG.Done()
	defer s.t.wg.Done()
	defer s.t.goros.Add(-1)
	events := make([]syscall.EpollEvent, 128)
	// Poll-then-park: after draining ready events the loop burns a bounded
	// amount of "spin gas" — non-blocking polls with a Gosched between them
	// — before it parks on the runtime's netpoller until the epoll instance
	// has an event (park). The short spin catches the common case where
	// the next burst of requests arrives within a scheduler quantum of the
	// last. The gas budget must stay small: an unbounded Gosched spin keeps
	// the run queue permanently non-empty, the scheduler never does a
	// blocking netpoll, and every other socket in the process (clients,
	// peers) waits for sysmon's 10ms fallback poll — measured as a 4x
	// throughput collapse. The park must not be a blocking EpollWait
	// either: that holds the shard's P inside a syscall, and with one shard
	// per P parked that way no P is idle to run the blocking netpoll, so
	// the same sockets wait for sysmon to retake a P.
	const spinGas = 256
	gas := spinGas
	for {
		var n int
		var err error
		if gas > 0 {
			n, err = syscall.EpollWait(sh.epfd, events, 0)
		} else {
			n, err = sh.park(events)
		}
		if err != nil {
			if err == syscall.EINTR {
				continue
			}
			return
		}
		if n == 0 {
			gas--
			runtime.Gosched()
			continue
		}
		gas = spinGas
		for i := 0; i < n; i++ {
			fd := int(events[i].Fd)
			if fd == sh.wakeR {
				var buf [8]byte
				syscall.Read(sh.wakeR, buf[:])
				sh.mu.Lock()
				closed := sh.closed
				sh.mu.Unlock()
				if closed {
					sh.ep.Close()
					syscall.Close(sh.wakeR)
					syscall.Close(sh.wakeW)
					return
				}
				continue
			}
			sh.mu.Lock()
			sc := sh.conns[fd]
			sh.mu.Unlock()
			if sc != nil {
				sc.readReady()
			}
		}
	}
}

// park waits on the runtime's netpoller until the shard's epoll instance
// has events, then collects them without blocking.
func (sh *pollShard) park(events []syscall.EpollEvent) (int, error) {
	var n int
	var werr error
	if err := sh.epc.Read(func(uintptr) bool {
		n, werr = syscall.EpollWait(sh.epfd, events, 0)
		return n != 0 || werr != nil
	}); err != nil {
		return 0, err
	}
	return n, werr
}

// readReady drains everything the socket has buffered through the frame
// state machine. Level-triggered epoll re-arms automatically, so stopping
// at errWouldBlock is enough.
func (sc *sconn) readReady() {
	err := sc.pump(sc.rawRead)
	if err == nil || errors.Is(err, errWouldBlock) {
		return
	}
	sc.releaseReadBuf()
	sc.shutdown()
}

// rawRead reads directly from the non-blocking socket. The RawConn callback
// always returns true so the runtime never parks us on its own netpoller —
// EAGAIN surfaces as errWouldBlock and the epoll shard decides when to
// retry.
func (sc *sconn) rawRead(p []byte) (int, error) {
	var n int
	var rerr error
	cerr := sc.rc.Read(func(fd uintptr) bool {
		for {
			n, rerr = syscall.Read(int(fd), p)
			if rerr == syscall.EINTR {
				continue
			}
			return true
		}
	})
	if cerr != nil {
		return 0, cerr
	}
	if rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK {
		return 0, errWouldBlock
	}
	if rerr != nil {
		return 0, rerr
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}
