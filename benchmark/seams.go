package main

import (
	"context"
	"fmt"
	"os"

	"sedna/internal/core"
	"sedna/internal/obs"
	"sedna/internal/transport"
	"sedna/internal/vfs"
)

// The seams: decorators around three public interfaces of the system. They
// are installed only in a -trace 1 run; a -trace 0 cluster is built exactly
// as cmd/sedna-coord and cmd/sedna-server build it.

// opNames gives the data-plane opcodes the names the per-layer metrics use.
var opNames = map[uint16]string{
	core.OpCoordWrite:        "coord_write",
	core.OpCoordRead:         "coord_read",
	core.OpCoordWriteBatch:   "coord_wbatch",
	core.OpCoordReadBatch:    "coord_rbatch",
	core.OpReplicaWrite:      "replica_write",
	core.OpReplicaRead:       "replica_read",
	core.OpReplicaWriteBatch: "replica_wbatch",
	core.OpReplicaReadBatch:  "replica_rbatch",
	core.OpReplicaRepair:     "replica_repair",
	core.OpRingGet:           "ring_get",
	core.OpSubNew:            "sub_new",
	core.OpSubPoll:           "sub_poll",
	core.OpSubClose:          "sub_close",
	core.OpObsStats:          "obs_stats",
}

func opName(op uint16) string {
	if n, ok := opNames[op]; ok {
		return n
	}
	if op>>8 == 0x01 || op>>8 == 0x02 { // the coordination service's range
		return "coordsvc"
	}
	return fmt.Sprintf("op_%04x", op)
}

// tracedCaller records one call span per outgoing RPC. The driver passes it
// as client.Config.Caller.
type tracedCaller struct {
	next transport.Caller
	rec  *recorder
}

func (c tracedCaller) Call(ctx context.Context, addr string, req transport.Message) (transport.Message, error) {
	if !c.rec.on.Load() {
		return c.next.Call(ctx, addr, req)
	}
	ctx, s, began := c.rec.start(ctx, kindCall, opName(req.Op))
	s.Peer = addr
	resp, err := c.next.Call(ctx, addr, req)
	c.rec.finish(s, began)
	return resp, err
}

// tracedTransport is the server-side seam, passed as core.Config.Transport
// and coord.ServerConfig.Transport: a serve span per inbound request, whose
// context the handler's own outgoing calls inherit, and a call span per
// outgoing RPC.
type tracedTransport struct {
	*transport.TCPTransport
	rec *recorder
}

func (t tracedTransport) Call(ctx context.Context, addr string, req transport.Message) (transport.Message, error) {
	return tracedCaller{t.TCPTransport, t.rec}.Call(ctx, addr, req)
}

func (t tracedTransport) Serve(h transport.Handler) error {
	return t.TCPTransport.Serve(func(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
		if !t.rec.on.Load() {
			return h(ctx, from, req)
		}
		ctx, s, began := t.rec.start(ctx, kindServe, opName(req.Op))
		resp, err := h(ctx, from, req)
		t.rec.finish(s, began)
		return resp, err
	})
}

// core.Server type-asserts its transport for these two; embedding the
// concrete transport already promotes them, the assertions keep it so.
var (
	_ interface{ Instrument(*obs.Registry) }     = tracedTransport{}
	_ interface{ SetLogf(func(string, ...any)) } = tracedTransport{}
)

// tracedFS is the storage seam, passed as persist.Config.FS. The durability
// layer gives no context to the filesystem, so vfs spans have no parent;
// the analysis attributes them to the replica handlers they overlap in time
// on the same node.
type tracedFS struct {
	vfs.FS
	rec *recorder
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tracedFile{file, f.rec}, nil
}

func (f tracedFS) SyncDir(name string) error {
	if !f.rec.on.Load() {
		return f.FS.SyncDir(name)
	}
	_, s, began := f.rec.start(context.Background(), kindVFS, "syncdir")
	err := f.FS.SyncDir(name)
	f.rec.finish(s, began)
	return err
}

type tracedFile struct {
	vfs.File
	rec *recorder
}

func (f tracedFile) Write(p []byte) (int, error) {
	if !f.rec.on.Load() {
		return f.File.Write(p)
	}
	_, s, began := f.rec.start(context.Background(), kindVFS, "write")
	n, err := f.File.Write(p)
	s.Bytes = n
	f.rec.finish(s, began)
	return n, err
}

func (f tracedFile) Sync() error {
	if !f.rec.on.Load() {
		return f.File.Sync()
	}
	_, s, began := f.rec.start(context.Background(), kindVFS, "sync")
	err := f.File.Sync()
	f.rec.finish(s, began)
	return err
}
