package core

// fifo is a growable ring-buffer FIFO. The streaming analyzer's pending
// and flag queues used to be plain slices advanced with s = s[1:]; because
// append can never reclaim the popped prefix, every half-window of
// steady-state streaming reallocated and re-copied the queue. The ring
// reuses its storage forever, which is what lets sustained ingest run at
// zero allocations per sample once the pipeline is warm.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *fifo[T]) len() int { return r.n }

// pushSlice appends all of xs in order, equivalent to pushing each
// element; the copies happen in at most two bulk moves.
func (r *fifo[T]) pushSlice(xs []T) {
	for r.n+len(xs) > len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	first := len(r.buf) - i
	if first > len(xs) {
		first = len(xs)
	}
	copy(r.buf[i:], xs[:first])
	copy(r.buf, xs[first:])
	r.n += len(xs)
}

// front returns the first n elements (n <= len) in queue order, as at
// most two contiguous segments of the ring: a then b. They alias the ring
// until the next push or discard.
func (r *fifo[T]) front(n int) (a, b []T) {
	first := min(n, len(r.buf)-r.head)
	return r.buf[r.head : r.head+first], r.buf[:n-first]
}

// discard drops the first n elements (n <= len).
func (r *fifo[T]) discard(n int) {
	r.head += n
	if r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
	r.n -= n
}

// ptr returns the address of the i-th element from the front, for
// in-place updates (retroactive flag patching).
func (r *fifo[T]) ptr(i int) *T {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return &r.buf[j]
}

func (r *fifo[T]) grow() {
	r.reserve(max(8, 2*len(r.buf)))
}

// reserve grows the ring to hold at least n elements, so sizing it up
// front costs one allocation instead of a doubling sequence.
func (r *fifo[T]) reserve(n int) {
	if n <= len(r.buf) {
		return
	}
	nb := make([]T, n)
	r.copyTo(nb)
	r.buf, r.head = nb, 0
}

// copyTo linearizes the queue contents into dst (which must hold at
// least r.n elements).
func (r *fifo[T]) copyTo(dst []T) {
	first := len(r.buf) - r.head
	if first > r.n {
		first = r.n
	}
	copy(dst, r.buf[r.head:r.head+first])
	copy(dst[first:], r.buf[:r.n-first])
}

// items returns a linearized copy of the queue, nil when empty — the
// shape the hand-off state format has always serialized.
func (r *fifo[T]) items() []T {
	if r.n == 0 {
		return nil
	}
	out := make([]T, r.n)
	r.copyTo(out)
	return out
}

// load replaces the queue contents.
func (r *fifo[T]) load(xs []T) {
	r.head, r.n = 0, 0
	r.pushSlice(xs)
}
