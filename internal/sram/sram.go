// Package sram implements the weight-buffer management substrate of
// AI-MT (paper §IV-A3): a block-granular SRAM allocator built from a
// free list, a weight management table (a block-id linked list), and
// per-layer chains delimited by w_head and w_tail.
//
// One block holds one PE array's weights. A CONV memory block occupies
// one block; an FC memory block occupies one block per PE array. When
// a memory block is fetched its blocks are appended to the owning
// layer's chain; when the matching compute block completes, the same
// number of blocks is consumed from the chain head and returned to the
// free list. This lets the runtime locate every compute block's
// weights with only two pointers per layer, exactly as the paper
// describes.
//
// The simulator's engine never reads a block id, so it keeps only an
// occupancy count; a Buffer is the model the invariant checker drives
// from the engine's event stream to prove that count and the paper's
// table agree.
package sram

import (
	"errors"
	"fmt"
)

// nilBlock marks the end of a chain in the weight management table.
const nilBlock = int32(-1)

// Buffer is a block-granular weight SRAM.
type Buffer struct {
	// next is the weight management table: next[i] is the block id
	// following block i in whichever chain block i belongs to.
	next []int32

	// free is the free list of unallocated block ids.
	free []int32

	// seen is Check's scratch: one mark per block, reused per call.
	seen []bool

	numBlocks int
}

// Chain is one layer's resident weight blocks: the paper's w_head and
// w_tail columns of the sub-layer scheduling table.
type Chain struct {
	head, tail int32
	count      int
}

// Len returns the number of blocks currently in the chain.
func (c *Chain) Len() int { return c.count }

// NewBuffer returns a buffer with the given number of blocks, all free.
// A non-positive block count is an error.
func NewBuffer(numBlocks int) (*Buffer, error) {
	b := &Buffer{}
	if err := b.Reset(numBlocks); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset reinitializes the buffer to numBlocks all-free blocks,
// reusing the existing backing arrays when they are large enough.
// It leaves the buffer exactly as NewBuffer would, so a pooled
// invariant checker can recycle one buffer across runs without
// reallocating the management table. A non-positive block count is an
// error and leaves the buffer unchanged.
func (b *Buffer) Reset(numBlocks int) error {
	if numBlocks <= 0 {
		return fmt.Errorf("sram: non-positive block count %d", numBlocks)
	}
	if cap(b.next) < numBlocks {
		b.next = make([]int32, numBlocks)
		b.free = make([]int32, 0, numBlocks)
	}
	b.next = b.next[:numBlocks]
	b.free = b.free[:0]
	b.numBlocks = numBlocks
	for i := numBlocks - 1; i >= 0; i-- {
		b.next[i] = nilBlock
		b.free = append(b.free, int32(i))
	}
	return nil
}

// SaveState copies the buffer's mutable state — the weight management
// table and the free list — into the given slices (reusing their
// capacity) and returns them. Together with the per-layer chains this
// captures the allocator completely; see RestoreState.
func (b *Buffer) SaveState(next, free []int32) (n, f []int32) {
	next = append(next[:0], b.next...)
	free = append(free[:0], b.free...)
	return next, free
}

// RestoreState overwrites the buffer's mutable state with a copy
// previously taken by SaveState on the same buffer geometry.
func (b *Buffer) RestoreState(next, free []int32) {
	b.next = append(b.next[:0], next...)
	b.free = append(b.free[:0], free...)
}

// NumBlocks returns the buffer's total block count.
func (b *Buffer) NumBlocks() int { return b.numBlocks }

// FreeBlocks returns the number of unallocated blocks.
func (b *Buffer) FreeBlocks() int { return len(b.free) }

// UsedBlocks returns the number of allocated blocks.
func (b *Buffer) UsedBlocks() int { return b.numBlocks - len(b.free) }

// Errors reported by buffer operations.
var (
	ErrNoSpace   = errors.New("sram: not enough free blocks")
	ErrUnderflow = errors.New("sram: consume exceeds chain length")
)

// Allocate takes n blocks from the free list and appends them, linked
// in order, to the given layer chain. It fails without side effects if
// fewer than n blocks are free.
func (b *Buffer) Allocate(c *Chain, n int) error {
	if n <= 0 {
		return fmt.Errorf("sram: allocate %d blocks", n)
	}
	if len(b.free) < n {
		return fmt.Errorf("%w: want %d, have %d", ErrNoSpace, n, len(b.free))
	}
	for i := 0; i < n; i++ {
		id := b.free[len(b.free)-1]
		b.free = b.free[:len(b.free)-1]
		b.next[id] = nilBlock
		if c.count == 0 {
			c.head, c.tail = id, id
		} else {
			b.next[c.tail] = id
			c.tail = id
		}
		c.count++
	}
	return nil
}

// Consume releases n blocks from the chain head back to the free list
// — the weights a completed compute block has finished reading.
func (b *Buffer) Consume(c *Chain, n int) error {
	if n <= 0 {
		return fmt.Errorf("sram: consume %d blocks", n)
	}
	if c.count < n {
		return fmt.Errorf("%w: want %d, chain has %d", ErrUnderflow, n, c.count)
	}
	for i := 0; i < n; i++ {
		id := c.head
		c.head = b.next[id]
		b.next[id] = nilBlock
		b.free = append(b.free, id)
		c.count--
	}
	if c.count == 0 {
		c.head, c.tail = nilBlock, nilBlock
	}
	return nil
}

// Check verifies the buffer's internal invariants against the given
// set of live chains: every block is in exactly one chain or the free
// list, chain lengths match their linked lists, and no id is out of
// range. Intended for tests and the simulator's invariant checker.
func (b *Buffer) Check(chains []*Chain) error {
	if cap(b.seen) < b.numBlocks {
		b.seen = make([]bool, b.numBlocks)
	}
	seen := b.seen[:b.numBlocks]
	clear(seen)
	// mark records one sighting of id in the free list (chain -1) or
	// in chains[chain]. The location is only formatted on failure, so
	// a consistent table checks without allocating.
	mark := func(id int32, chain int) error {
		if id >= 0 && int(id) < b.numBlocks && !seen[id] {
			seen[id] = true
			return nil
		}
		where := "free list"
		if chain >= 0 {
			where = fmt.Sprintf("chain %d", chain)
		}
		if id < 0 || int(id) >= b.numBlocks {
			return fmt.Errorf("sram: %s references block %d out of range", where, id)
		}
		return fmt.Errorf("sram: block %d appears twice (%s)", id, where)
	}
	for _, id := range b.free {
		if err := mark(id, -1); err != nil {
			return err
		}
	}
	for ci, c := range chains {
		n := 0
		for id := c.head; n < c.count; id = b.next[id] {
			if err := mark(id, ci); err != nil {
				return err
			}
			n++
			if n == c.count && id != c.tail {
				return fmt.Errorf("sram: chain %d tail mismatch", ci)
			}
		}
	}
	for id, s := range seen {
		if !s {
			return fmt.Errorf("sram: block %d leaked (in no chain or free list)", id)
		}
	}
	return nil
}
