package sim

import "fmt"

// Slots is a reusable reference registry for the typed event path: the
// Handler data word is a plain uint64, so components park reference payloads
// (messages, packets, transactions) in a Slots and thread the returned index
// through ScheduleEvent. Storage is free-listed, so steady-state use performs
// no allocation once the registry has grown to the component's peak
// concurrency. A Slots belongs to one component on one kernel goroutine; it
// is not synchronized.
type Slots[T any] struct {
	items []T
	free  []uint32
}

// Put parks v and returns its slot index for a Handler data word.
func (s *Slots[T]) Put(v T) uint64 {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		s.items[id] = v
		return uint64(id)
	}
	s.items = append(s.items, v)
	return uint64(len(s.items) - 1)
}

// Take removes and returns the value in slot id.
func (s *Slots[T]) Take(id uint64) T {
	v := s.Get(id)
	s.Free(id)
	return v
}

// Get returns the value in slot id without freeing it — for payloads shared
// by several in-flight events (free the slot with the last one).
func (s *Slots[T]) Get(id uint64) T {
	if id >= uint64(len(s.items)) {
		panic(fmt.Sprintf("sim: slot %d out of range (%d allocated)", id, len(s.items)))
	}
	return s.items[id]
}

// Free releases slot id for reuse and clears its storage so the registry
// does not retain the payload.
func (s *Slots[T]) Free(id uint64) {
	var zero T
	s.items[id] = zero
	s.free = append(s.free, uint32(id))
}

// Len returns the number of live (parked, unfreed) slots.
func (s *Slots[T]) Len() int { return len(s.items) - len(s.free) }

// Reset releases every slot and clears all storage, returning the registry to
// its zero state while keeping grown capacity for reuse.
func (s *Slots[T]) Reset() {
	clear(s.items)
	s.items = s.items[:0]
	s.free = s.free[:0]
}
