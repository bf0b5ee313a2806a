// Package comm is the communication substrate of SympleGraph-Go. It plays
// the role MPI plays in the paper's implementation (§6): point-to-point
// messaging between the machines of a cluster, simple collectives
// (barrier, all-reduce), and per-kind byte accounting.
//
// Two transports are provided. MemCluster connects N simulated machines in
// one process through channels — the default for experiments, benchmarks
// and tests. TCPCluster connects endpoints over real sockets (loopback or
// LAN) with length-prefixed frames. Both serialize every message to bytes,
// so communication-volume measurements (Table 6 of the paper) are
// identical across transports.
//
// Messages carry a Kind so that the paper's two traffic classes — update
// communication (mirror→master partial aggregates) and dependency
// communication (the circulating skip bitmaps SympleGraph adds) — are
// tallied separately, plus a Control kind for collectives.
package comm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bufpool"
)

// NodeID identifies a machine within a cluster, in [0, N).
type NodeID int

// Kind classifies message traffic for accounting and demultiplexing.
type Kind uint8

const (
	// KindUpdate is mirror→master update communication: the partial
	// signal results existing frameworks already send.
	KindUpdate Kind = iota
	// KindDependency is the dependency communication SympleGraph adds:
	// skip bitmaps and data-dependency payloads circulating the ring.
	KindDependency
	// KindControl is framework-internal traffic: barriers, reductions,
	// frontier exchanges and termination votes.
	KindControl
	numKinds
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindUpdate:
		return "update"
	case KindDependency:
		return "dependency"
	case KindControl:
		return "control"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is a unit of communication. Tag disambiguates messages of the
// same kind between the same pair of nodes (the engine uses step and
// iteration numbers); a mismatch indicates a protocol bug and surfaces as
// a *ProtocolError at the receiver.
//
// A received Message leases its payload: once the receiver has consumed
// (or copied out) the bytes it needs, Release returns the backing array
// to the payload slab (internal/bufpool) for the next superstep's
// frames. Release is always safe — payloads the transport does not own
// (aliased plain-Send deliveries on the memory transport) make it a
// no-op — but after calling it the payload must not be touched again;
// the sgvet bufown analyzer polices that invariant. Receivers that
// retain the payload (collective results handed to algorithms) simply
// never Release.
type Message struct {
	From    NodeID
	Kind    Kind
	Tag     int32
	Payload []byte

	// owned marks a payload the transport owns outright (hand-off via
	// SendBufs, or a slab-backed TCP read); only those return to the
	// slab on Release.
	owned bool
}

// Release returns the payload to the slab when the transport owned it
// and poisons the message against reuse. Idempotent; safe on the zero
// Message.
func (m *Message) Release() {
	if m.owned && m.Payload != nil {
		bufpool.Put(m.Payload)
	}
	m.owned = false
	m.Payload = nil
}

// Buffers is a vectored message payload: the frame on the wire (and the
// payload the receiver sees) is the concatenation of the elements.
// Handing a Buffers to SendBufs passes ownership of every element to
// the transport — the caller must not retain, reuse or mutate them
// afterwards (bufown lints this); the transport recycles them through
// internal/bufpool once the frame is delivered or abandoned. Elements
// may be empty; a nil Buffers is an empty frame.
type Buffers [][]byte

// TotalLen returns the summed length of all elements.
func (b Buffers) TotalLen() int {
	n := 0
	for _, buf := range b {
		n += len(buf)
	}
	return n
}

// release returns every element to the slab — the transport-side
// disposal for frames that were copied or dropped rather than handed
// off. Elements with foreign capacities are left to the GC by the pool.
func (b Buffers) release() {
	for _, buf := range b {
		if buf != nil {
			bufpool.Put(buf)
		}
	}
}

// headerBytes is the accounted per-message overhead: from(4) kind(1)
// tag(4) length(4), matching the TCP frame encoding so both transports
// report identical volumes.
const headerBytes = 13

// Endpoint is one machine's connection to the cluster.
//
// SendBufs is the data plane's primary send: a vectored frame whose
// buffers the transport takes ownership of — written with writev (no
// intermediate concatenation) on TCP, handed off by reference on the
// memory transport — and recycles through the payload slab after
// delivery. Send is the legacy convenience wrapper for single-buffer
// callers whose payload the transport may alias but does not own (the
// caller still must not mutate it after the call).
//
// Sends may block if the destination's inbox is full (memory transport)
// or the socket buffer is full (TCP); the engine's communication
// protocol is deadlock-free because every send has a matching posted
// receive within the same superstep. Recv blocks until a message with
// the given source and kind arrives, and returns a *ProtocolError if
// its tag does not match — tags are a protocol assertion, not a
// selection mechanism — or a *ClosedError if the endpoint shut down
// while the receive was pending. Received messages are leases: see
// Message.Release.
//
// Concurrent Recv calls are safe as long as no two goroutines receive the
// same (from, kind) pair concurrently, which the engine guarantees by
// dedicating dependency traffic to the coordinator goroutine (§6 of the
// paper: "a dependency communication coordinator thread").
type Endpoint interface {
	// ID returns this endpoint's node ID.
	ID() NodeID
	// N returns the cluster size.
	N() int
	// Send delivers payload to node `to`. The payload may be aliased by
	// the transport after the call and must not be mutated or reused by
	// the caller.
	Send(to NodeID, kind Kind, tag int32, payload []byte) error
	// SendBufs delivers the concatenation of bufs to node `to`,
	// transferring ownership of every buffer to the transport.
	SendBufs(to NodeID, kind Kind, tag int32, bufs Buffers) error
	// Recv returns the next message from `from` of kind `kind`,
	// blocking as needed.
	Recv(from NodeID, kind Kind, tag int32) (Message, error)
	// Stats returns this endpoint's traffic counters.
	Stats() *Stats
	// Close releases transport resources. The endpoint is unusable
	// afterwards.
	Close() error
}

// DeadlineRecver is the optional deadline-receive capability. Both
// built-in transports (and FaultPlan wrappers around them) implement it;
// the engine uses it to turn an indefinitely stalled superstep into a
// structured error. A non-positive timeout blocks like Recv.
type DeadlineRecver interface {
	RecvTimeout(from NodeID, kind Kind, tag int32, timeout time.Duration) (Message, error)
}

// RecvTimeout performs a deadline receive when e supports it, falling
// back to a plain blocking Recv otherwise (or when timeout <= 0). The
// error is a *TimeoutError when the deadline expired.
func RecvTimeout(e Endpoint, from NodeID, kind Kind, tag int32, timeout time.Duration) (Message, error) {
	if dr, ok := e.(DeadlineRecver); ok && timeout > 0 {
		return dr.RecvTimeout(from, kind, tag, timeout)
	}
	return e.Recv(from, kind, tag)
}

// StepObserver is the optional superstep-progress capability: the engine
// announces each edge-processing pass so step-keyed fault rules (crash at
// superstep k, partition windows) fire deterministically. Transports
// without fault injection ignore it.
type StepObserver interface {
	ObserveSuperstep(step int)
}

// ObserveSuperstep forwards a superstep announcement to e when it cares.
func ObserveSuperstep(e Endpoint, step int) {
	if so, ok := e.(StepObserver); ok {
		so.ObserveSuperstep(step)
	}
}

// demux routes incoming messages to per-(from, kind) queues so that
// concurrent receivers of disjoint streams never contend, mirroring the
// paper's separation of worker (update) and coordinator (dependency)
// threads.
type demux struct {
	self   NodeID // owning endpoint, for error context
	n      int
	mu     sync.Mutex
	queues map[demuxKey]chan Message
	done   chan struct{} // closed on shutdown; the data queues never are
	closed bool
}

type demuxKey struct {
	from NodeID
	kind Kind
}

func newDemux(self NodeID, n int) *demux {
	return &demux{
		self:   self,
		n:      n,
		queues: make(map[demuxKey]chan Message),
		done:   make(chan struct{}),
	}
}

// queueCap bounds each (from, kind) stream. The engine protocol keeps at
// most a handful of in-flight messages per stream (double buffering sends
// a few group frames ahead); 1024 gives slack without unbounded memory.
const queueCap = 1024

func (d *demux) queue(from NodeID, kind Kind) chan Message {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := demuxKey{from, kind}
	q, ok := d.queues[key]
	if !ok {
		q = make(chan Message, queueCap)
		d.queues[key] = q
	}
	return q
}

// deliver enqueues m, blocking under backpressure until the receiver
// drains or the endpoint shuts down. Shutdown drops the message: a
// poisoned run closes endpoints precisely to unblock peers mid-Send, so
// deliveries racing the close are abandoned, not delivered.
func (d *demux) deliver(m Message) {
	select {
	case d.queue(m.From, m.Kind) <- m:
	case <-d.done:
	}
}

// recv is the one deadline-aware receive implementation every built-in
// transport (and the fault wrapper above them) funnels through: the
// leased-receive semantics — tag assertion, closed-inbox drain, timeout
// classification, payload lease intact as delivered — are defined here
// and nowhere else. A non-positive timeout blocks indefinitely.
func (d *demux) recv(from NodeID, kind Kind, tag int32, timeout time.Duration) (Message, error) {
	q := d.queue(from, kind)
	// Fast path: a message is already queued (also the only path a
	// zero-timeout caller should pay a timer for — it never does).
	select {
	case m := <-q:
		return d.checkTag(m, from, kind, tag)
	default:
	}
	if timeout <= 0 {
		select {
		case m := <-q:
			return d.checkTag(m, from, kind, tag)
		case <-d.done:
			return d.drain(q, from, kind, tag)
		}
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case m := <-q:
		return d.checkTag(m, from, kind, tag)
	case <-d.done:
		return d.drain(q, from, kind, tag)
	case <-t.C:
		return Message{}, &TimeoutError{Node: d.self, From: from, Kind: kind, Tag: tag, Timeout: timeout}
	}
}

// drain gives messages enqueued before shutdown one last chance to be
// received — a closed demux refuses new deliveries but does not discard
// what already arrived.
func (d *demux) drain(q chan Message, from NodeID, kind Kind, tag int32) (Message, error) {
	select {
	case m := <-q:
		return d.checkTag(m, from, kind, tag)
	default:
		return Message{}, &ClosedError{Node: d.self, From: from, Kind: kind}
	}
}

// recvInbox is the shared receive half of the built-in transports: both
// memEndpoint and TCPEndpoint embed it, so Recv and RecvTimeout have
// exactly one definition, delegating to the demux's deadline-aware
// receive.
type recvInbox struct {
	inbox *demux
}

// Recv implements Endpoint.
func (r *recvInbox) Recv(from NodeID, kind Kind, tag int32) (Message, error) {
	return r.inbox.recv(from, kind, tag, 0)
}

// RecvTimeout implements DeadlineRecver.
func (r *recvInbox) RecvTimeout(from NodeID, kind Kind, tag int32, timeout time.Duration) (Message, error) {
	return r.inbox.recv(from, kind, tag, timeout)
}

func (d *demux) checkTag(m Message, from NodeID, kind Kind, tag int32) (Message, error) {
	if m.Tag != tag {
		return Message{}, &ProtocolError{Node: d.self, From: from, Kind: kind, WantTag: tag, GotTag: m.Tag}
	}
	return m, nil
}

func (d *demux) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	close(d.done)
}
