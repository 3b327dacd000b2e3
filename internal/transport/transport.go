// Package transport provides Sedna's RPC layer: a small request/response
// protocol with numeric opcodes, usable over real TCP (production, the
// cmd/sedna-server binary) or over the in-memory simulated network in
// internal/netsim (tests and the paper-reproduction benchmarks). Both
// implementations satisfy the same interfaces so the rest of the system is
// oblivious to which one carries its traffic.
package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Message is one RPC payload: an opcode plus an opaque body encoded by the
// caller (every subsystem owns its own binary body format).
type Message struct {
	Op   uint16
	Body []byte
	// Trace is an optional encoded obs.TraceContext riding the request so
	// a sampled op's trace survives process boundaries. Transports carry it
	// opaquely: the simulated network passes the field through in memory,
	// TCP frames it as a versioned, length-delimited extension block (see
	// tcp.go). Empty on untraced requests and on all responses.
	Trace []byte
}

// Handler processes one request and returns the response. from identifies
// the caller's address when known ("" otherwise). Returning an error sends
// a RemoteError to the caller instead of a response body.
//
// Body ownership: req.Body and req.Trace may be backed by a pooled frame
// buffer that the transport recycles once the handler returns, so a handler
// that retains request bytes past its return (queues them, hands them to a
// goroutine, stores them) must copy what it keeps. The response must not
// alias the request body. Response bodies travel in the opposite direction:
// the transport hands the caller of Call ownership of the returned
// Message.Body.
type Handler func(ctx context.Context, from string, req Message) (Message, error)

// Errors surfaced by transports.
var (
	// ErrUnreachable reports that the destination does not exist or the
	// connection could not be established.
	ErrUnreachable = errors.New("transport: destination unreachable")
	// ErrClosed reports use of a closed transport or listener.
	ErrClosed = errors.New("transport: closed")
	// ErrNoHandler reports a request for an opcode with no registered
	// handler.
	ErrNoHandler = errors.New("transport: no handler for opcode")
	// ErrOverloaded reports that the remote server shed the request at a
	// saturated pipeline stage (a kindBusy frame): the node is alive and
	// answering, it just refused this unit of work. Callers treat it as
	// retryable with backoff; it never counts against a node's health
	// breaker.
	ErrOverloaded = errors.New("transport: server overloaded")
	// ErrFrameTooLarge reports a frame whose ext+body would exceed the
	// wire format's maxFrame bound. It is detected before any bytes hit
	// the wire, so the connection stays healthy.
	ErrFrameTooLarge = errors.New("transport: frame exceeds max size")
)

// RemoteError wraps an error string produced by the remote handler.
type RemoteError struct {
	Msg string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return "remote: " + e.Msg }

// IsRemote reports whether err is an error produced by the remote handler
// (as opposed to a transport failure such as a timeout); quorum logic
// treats the two very differently — a remote "not owner" reply still counts
// as a live node.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// Caller issues RPCs.
type Caller interface {
	// Call sends req to addr and waits for the response, honouring ctx
	// for cancellation and deadline.
	Call(ctx context.Context, addr string, req Message) (Message, error)
}

// Transport combines serving and calling.
type Transport interface {
	Caller
	// Serve registers the handler for this transport's address and
	// starts accepting requests. It may be called once.
	Serve(h Handler) error
	// Addr returns the transport's own address.
	Addr() string
	// Close stops serving and releases resources.
	Close() error
}

// Mux dispatches requests to per-opcode handlers; it is the Handler most
// servers register.
type Mux struct {
	mu       sync.RWMutex
	handlers map[uint16]Handler
}

// NewMux returns an empty Mux.
func NewMux() *Mux { return &Mux{handlers: map[uint16]Handler{}} }

// HandleFunc registers h for opcode op, replacing any previous handler.
func (m *Mux) HandleFunc(op uint16, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[op] = h
}

// Handle implements Handler by dispatching on the opcode.
func (m *Mux) Handle(ctx context.Context, from string, req Message) (Message, error) {
	m.mu.RLock()
	h := m.handlers[req.Op]
	m.mu.RUnlock()
	if h == nil {
		return Message{}, fmt.Errorf("%w %d", ErrNoHandler, req.Op)
	}
	return h(ctx, from, req)
}

// ReadFull is a tiny helper shared by framed implementations.
func readFull(r io.Reader, buf []byte) error {
	_, err := io.ReadFull(r, buf)
	return err
}
