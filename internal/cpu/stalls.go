package cpu

// MergeStalls coalesces ground-truth stall intervals separated by at most
// maxGap cycles into single events. The pipeline occasionally interrupts a
// long memory stall for a cycle or two (a fetch slot opens, one queued
// instruction issues); physically that is still one stall, and no
// band-limited signal can resolve the interruption, so validation compares
// EMPROF against intervals merged at the signal's cycle resolution.
func MergeStalls(stalls []StallInterval, maxGap uint64) []StallInterval {
	if len(stalls) == 0 {
		return nil
	}
	out := make([]StallInterval, 0, len(stalls))
	cur := stalls[0]
	for _, s := range stalls[1:] {
		if s.Start <= cur.End+maxGap {
			cur.End = s.End
			cur.Stalled += s.Stalled
			cur.Misses += s.Misses
			cur.RefreshHit = cur.RefreshHit || s.RefreshHit
			continue
		}
		out = append(out, cur)
		cur = s
	}
	return append(out, cur)
}

// StalledCycles returns the interval's fully-stalled cycle count (falling
// back to the span for intervals built before merging).
func (s StallInterval) StalledCycles() uint64 {
	if s.Stalled > 0 {
		return s.Stalled
	}
	return s.Cycles()
}

// FilterStalls returns the intervals whose start lies in [lo, hi).
func FilterStalls(stalls []StallInterval, lo, hi uint64) []StallInterval {
	var out []StallInterval
	for _, s := range stalls {
		if s.Start >= lo && s.Start < hi {
			out = append(out, s)
		}
	}
	return out
}
