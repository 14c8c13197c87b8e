package dyncapi

// pairStack is the per-rank enter/exit pairing stack shared by the sampler
// (deliver/drop decision per open invocation) and the async pipeline
// (appended/dropped decision per open enter): one bit per open frame, bit 0
// of word the innermost. The innermost frames live in the inline word; when
// it is full, push spills it as a whole to an amortized slice and pop
// restores it, so pairing stays exact at any nesting depth while the common
// shallow case never touches memory beyond the struct. Single-writer: only
// the owning rank's goroutine may push or pop.
type pairStack struct {
	n     int      // open frames
	word  uint64   // the innermost 1..64 frames (all of them when n <= 64)
	spill []uint64 // older frames, 64 per word, outermost first
}

// depth returns the number of open frames.
func (s *pairStack) depth() int { return s.n }

// push opens a frame carrying bit.
func (s *pairStack) push(bit bool) {
	if s.n&63 == 0 && s.n > 0 {
		//capi:hotpath-ok amortized per-rank spill: grows to the rank's max nesting depth / 64 once, then never again
		s.spill = append(s.spill, s.word)
		s.word = 0
	}
	s.word <<= 1
	if bit {
		s.word |= 1
	}
	s.n++
}

// pop closes the innermost frame and returns its bit. ok is false when no
// frame is open: the exit belongs to an enter the stack never saw.
func (s *pairStack) pop() (bit, ok bool) {
	if s.n == 0 {
		return false, false
	}
	bit = s.word&1 == 1
	s.word >>= 1
	s.n--
	if s.n&63 == 0 && s.n > 0 {
		last := len(s.spill) - 1
		s.word = s.spill[last]
		s.spill = s.spill[:last]
	}
	return bit, true
}
