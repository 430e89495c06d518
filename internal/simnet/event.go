package simnet

import "repro/internal/core"

// Event is a one-shot broadcast wake-up in virtual time: any number of
// processes Wait, one Fire releases them all. Waiters park without
// scheduling anything, so a wait costs no poll events; Fire queues one
// wake-up per waiter at the current instant, in the order the waiters
// arrived, which keeps the one-process-per-event rule and makes the
// release order deterministic.
type Event struct {
	k       *Kernel
	fired   bool
	waiters []chan struct{} // parked wake-up channels, FIFO
}

// NewEvent creates an unfired event.
func (k *Kernel) NewEvent() *Event { return &Event{k: k} }

// Fire releases every current waiter at the current virtual time and
// lets every later Wait return at once. Only the first call counts. It
// may be called from a process, from an AfterCall callback or from
// outside the simulation.
func (e *Event) Fire() {
	k := e.k
	k.mu.Lock()
	defer k.mu.Unlock()
	if e.fired {
		return
	}
	e.fired = true
	if k.stopped {
		return // Stop already released the waiters with ErrStopped
	}
	for _, ch := range e.waiters {
		k.push(k.now, kindSleep).ch = ch
	}
	e.waiters = nil
}

// Wait blocks the calling process until the event fires. It returns at
// once when the event has already fired, and core.ErrStopped when the
// kernel shuts down first. It must be called from a process goroutine.
func (e *Event) Wait() error {
	k := e.k
	k.mu.Lock()
	if e.fired {
		k.mu.Unlock()
		return nil
	}
	if k.stopped {
		k.mu.Unlock()
		return core.ErrStopped
	}
	ch := sleepChPool.Get().(chan struct{})
	e.waiters = append(e.waiters, ch)
	k.block()
	k.mu.Unlock()
	select {
	case <-ch:
		sleepChPool.Put(ch)
		return nil
	case <-k.stopCh:
		return core.ErrStopped
	}
}
