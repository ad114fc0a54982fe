package sim

// FIFO is a power-of-two ring buffer for the fixed-delay delivery
// pattern used throughout the hot paths: when every pending completion
// shares one fixed delay, kernel dispatch order (at, seq) is exactly
// push order, so a plain FIFO replaces a closure per completion. The
// kernel's fixed-delay lanes are FIFOs.
//
// The ring only grows when it is full, doubling, so its capacity is
// bounded by twice the peak occupancy no matter how many elements pass
// through — a queue that never drains (a token lane) does not grow with
// every push. Pops zero the vacated slot so dead payloads are not
// retained, and steady-state push/pop allocates nothing.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// minFIFOCap is the ring's first allocation.
const minFIFOCap = 8

// Push appends v.
func (f *FIFO[T]) Push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// grow doubles the ring, unwrapping its contents to the front.
func (f *FIFO[T]) grow() {
	buf := make([]T, max(2*len(f.buf), minFIFOCap))
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.buf = buf
	f.head = 0
}

// Pop removes and returns the oldest element. The caller must know the
// queue is non-empty (one pending typed event per pushed element).
func (f *FIFO[T]) Pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// Front returns a pointer to the oldest element without removing it;
// the queue must be non-empty and the pointer is valid until the next
// Push or Pop.
func (f *FIFO[T]) Front() *T { return &f.buf[f.head] }

// Back returns a pointer to the newest element without removing it;
// the queue must be non-empty and the pointer is valid until the next
// Push or Pop.
func (f *FIFO[T]) Back() *T { return &f.buf[(f.head+f.n-1)&(len(f.buf)-1)] }

// Len reports the number of queued elements.
func (f *FIFO[T]) Len() int { return f.n }

// Cap reports the ring's capacity (capacity-stability tests).
func (f *FIFO[T]) Cap() int { return len(f.buf) }
