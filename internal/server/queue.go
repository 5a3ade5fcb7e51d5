package server

import (
	"errors"
	"fmt"
	"sync"
)

// Admission errors. Both surface on the wire: ErrQueueFull as HTTP 429
// with a Retry-After header, ErrDraining as HTTP 503 once shutdown began.
// Wrapped errors carry detail; match with errors.Is.
var (
	ErrQueueFull = errors.New("admission queue full")
	ErrDraining  = errors.New("server draining")
)

// task is one admitted unit of work: a prepared design point plus the
// flight its completion resolves.
type task struct {
	prep Prepared
	fl   *flight
}

// clientFIFO is one client's pending jobs, in admission order.
type clientFIFO struct {
	id    string
	items []*task
}

// admitQueue is the bounded, client-fair admission queue. Depth is capped
// across all clients — admission beyond the cap is shed, never blocked —
// and dequeue round-robins across the clients that currently hold queued
// jobs, one job per turn, so a client that dumps a large batch cannot
// starve a client submitting single jobs. Within one client, jobs leave
// in FIFO order.
//
// Fairness state is an explicit ring of active clients (map iteration
// order is never consulted), so scheduling is deterministic given the
// admission order.
type admitQueue struct {
	mu   sync.Mutex
	wake *sync.Cond

	capacity int
	n        int // queued tasks across all clients
	closed   bool
	shed     int // admissions rejected because the queue was full

	clients map[string]*clientFIFO // client id -> pending jobs
	ring    []*clientFIFO          // round-robin order of clients with pending jobs
	next    int                    // ring cursor
}

func newAdmitQueue(capacity int) *admitQueue {
	q := &admitQueue{capacity: capacity, clients: make(map[string]*clientFIFO)}
	q.wake = sync.NewCond(&q.mu)
	return q
}

// enqueue admits one task under the client's identity. It never blocks: a
// full queue sheds the task with ErrQueueFull, a closed queue rejects it
// with ErrDraining.
func (q *admitQueue) enqueue(client string, t *task) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return fmt.Errorf("server: %w", ErrDraining)
	}
	if q.n >= q.capacity {
		q.shed++
		return fmt.Errorf("server: %w: %d jobs queued (capacity %d)", ErrQueueFull, q.n, q.capacity)
	}
	cq := q.clients[client]
	if cq == nil {
		cq = &clientFIFO{id: client}
		q.clients[client] = cq
	}
	if len(cq.items) == 0 {
		q.ring = append(q.ring, cq)
	}
	cq.items = append(cq.items, t)
	q.n++
	q.wake.Signal()
	return nil
}

// dequeue blocks until a task is available and returns it, or returns
// false once the queue is closed and fully drained. The pick is the next
// client in the ring, advancing one client per dequeue.
func (q *admitQueue) dequeue() (*task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.n > 0 {
			if q.next >= len(q.ring) {
				q.next = 0
			}
			cq := q.ring[q.next]
			t := cq.items[0]
			cq.items = cq.items[1:]
			q.n--
			if len(cq.items) == 0 {
				// Client exhausted: drop it from the ring (the cursor now
				// points at its successor) and the index.
				q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
				delete(q.clients, cq.id)
			} else {
				q.next++
			}
			return t, true
		}
		if q.closed {
			return nil, false
		}
		q.wake.Wait()
	}
}

// close stops admission. Already-queued tasks still drain through
// dequeue; once they are gone, dequeue returns false. Idempotent.
func (q *admitQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake.Broadcast()
}

// queueStats is a consistent snapshot of the queue's state.
type queueStats struct {
	depth    int // tasks currently queued
	capacity int
	clients  int // distinct client identities holding queued tasks
	shed     int // admissions rejected since construction
}

func (q *admitQueue) snapshot() queueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return queueStats{
		depth:    q.n,
		capacity: q.capacity,
		clients:  len(q.clients),
		shed:     q.shed,
	}
}
