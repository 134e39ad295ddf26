// Package queue implements the Michael–Scott lock-free FIFO queue on top
// of a persistence engine. The queue is not part of the paper's evaluation
// — it is the generality claim made executable: §1 promises that Mirror
// converts *any* linearizable lock-free structure with no algorithmic
// change, and the canonical lock-free queue (the basis of the hand-made
// durable queue of Friedman et al., PPoPP 2018, cited as [18]) exercises
// exactly the operations sets do not: blind pointer swings with helping on
// two shared locations.
package queue

import (
	"mirror/internal/engine"
)

// Node layout (engine.Plain): the next reference is the one cell; the
// value, written once before the node is enqueued, is a plain word after it.
const (
	FieldNext = 0
	FieldVal  = 1 * engine.Plain
	// NodeFields is a node's size: one cell and one plain word.
	NodeFields = FieldVal + 1
)

// Queue is a durable (engine permitting) lock-free FIFO queue.
type Queue struct {
	e     engine.Engine
	rootF int // rootF holds head, rootF+1 holds tail
}

// New creates a queue whose head/tail references live in root fields 4 and
// 5 (or adopts an existing one after recovery).
func New(e engine.Engine, c *engine.Ctx) *Queue {
	return NewAt(e, c, 4)
}

// NewAt is New with an explicit pair of root fields.
func NewAt(e engine.Engine, c *engine.Ctx, rootField int) *Queue {
	q := &Queue{e: e, rootF: rootField}
	e.OpBegin(c)
	defer e.OpEnd(c)
	if e.Load(c, engine.Root, rootField) != 0 {
		return q
	}
	dummy := e.Alloc(c, NodeFields)
	e.StoreInit(c, dummy, FieldVal, 0)
	e.StoreInit(c, dummy, FieldNext, 0)
	e.Publish(c, dummy)
	e.Store(c, engine.Root, rootField+1, dummy) // tail first: head != 0 signals "ready"
	e.Store(c, engine.Root, rootField, dummy)
	return q
}

// Name identifies the structure in output.
func (q *Queue) Name() string { return "queue" }

// Enqueue appends v to the queue.
func (q *Queue) Enqueue(c *engine.Ctx, v uint64) {
	e := q.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	node := e.Alloc(c, NodeFields)
	e.StoreInit(c, node, FieldVal, v)
	e.StoreInit(c, node, FieldNext, 0)
	e.Publish(c, node)
	for {
		tail := e.Load(c, engine.Root, q.rootF+1)
		next := e.Load(c, tail, FieldNext)
		if next != 0 {
			// Tail lags; help swing it.
			e.CAS(c, engine.Root, q.rootF+1, tail, next)
			continue
		}
		e.MakePersistent(c, tail, NodeFields)
		if e.CAS(c, tail, FieldNext, 0, node) {
			// Linearized (and durable). Swinging the tail is best
			// effort; anyone can finish it.
			e.CAS(c, engine.Root, q.rootF+1, tail, node)
			return
		}
	}
}

// Dequeue removes and returns the oldest element.
func (q *Queue) Dequeue(c *engine.Ctx) (uint64, bool) {
	e := q.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	for {
		head := e.Load(c, engine.Root, q.rootF)
		tail := e.Load(c, engine.Root, q.rootF+1)
		next := e.Load(c, head, FieldNext)
		if head == tail {
			if next == 0 {
				return 0, false // empty
			}
			// Tail lags behind a completed enqueue; help.
			e.CAS(c, engine.Root, q.rootF+1, tail, next)
			continue
		}
		v := e.Load(c, next, FieldVal)
		e.MakePersistent(c, head, NodeFields)
		e.MakePersistent(c, next, NodeFields)
		if e.CAS(c, engine.Root, q.rootF, head, next) {
			e.Retire(c, head, NodeFields)
			return v, true
		}
	}
}

// Peek returns the oldest element without removing it.
func (q *Queue) Peek(c *engine.Ctx) (uint64, bool) {
	e := q.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	for {
		head := e.Load(c, engine.Root, q.rootF)
		next := e.Load(c, head, FieldNext)
		if next == 0 {
			return 0, false
		}
		v := e.Load(c, next, FieldVal)
		if e.Load(c, engine.Root, q.rootF) == head {
			return v, true
		}
	}
}

// Len counts queued elements (quiesced use only).
func (q *Queue) Len(c *engine.Ctx) int {
	e := q.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	n := 0
	node := e.Load(c, engine.Root, q.rootF) // dummy
	for {
		node = e.Load(c, node, FieldNext)
		if node == 0 {
			return n
		}
		n++
	}
}

// Drain empties the queue into a slice (quiesced use only).
func (q *Queue) Drain(c *engine.Ctx) []uint64 {
	var out []uint64
	for {
		v, ok := q.Dequeue(c)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Tracer walks every node reachable from the head (the tail is always on
// that chain).
func (q *Queue) Tracer() engine.Tracer {
	return TracerAt(q.e, q.rootF)
}

// TracerAt returns the queue's recovery tracer without attaching to the
// (possibly not yet recovered) structure.
func TracerAt(e engine.Engine, rootField int) engine.Tracer {
	return func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int, int), _ func(engine.Ref, int, uint64)) {
		node := read(engine.Root, rootField)
		for node != 0 {
			visit(node, NodeFields, 0)
			node = read(node, FieldNext)
		}
	}
}
