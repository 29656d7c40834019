package sram

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustBuffer(t *testing.T, n int) *Buffer {
	t.Helper()
	b, err := NewBuffer(n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBufferAllFree(t *testing.T) {
	b := mustBuffer(t, 64)
	if b.NumBlocks() != 64 || b.FreeBlocks() != 64 || b.UsedBlocks() != 0 {
		t.Fatalf("fresh buffer: num=%d free=%d used=%d", b.NumBlocks(), b.FreeBlocks(), b.UsedBlocks())
	}
	if err := b.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewBufferRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		if b, err := NewBuffer(n); err == nil {
			t.Errorf("NewBuffer(%d) = %v, want an error", n, b)
		}
		b := mustBuffer(t, 4)
		if err := b.Reset(n); err == nil {
			t.Errorf("Reset(%d) succeeded, want an error", n)
		}
		// A rejected Reset leaves the buffer as it was.
		if b.NumBlocks() != 4 || b.FreeBlocks() != 4 {
			t.Errorf("Reset(%d) mutated the buffer: num=%d free=%d", n, b.NumBlocks(), b.FreeBlocks())
		}
	}
}

func TestAllocateConsumeRoundTrip(t *testing.T) {
	b := mustBuffer(t, 16)
	var c Chain
	if err := b.Allocate(&c, 5); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 5 || b.FreeBlocks() != 11 {
		t.Fatalf("after alloc: len=%d free=%d", c.Len(), b.FreeBlocks())
	}
	if err := b.Check([]*Chain{&c}); err != nil {
		t.Fatal(err)
	}
	if err := b.Consume(&c, 5); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || b.FreeBlocks() != 16 {
		t.Fatalf("after consume: len=%d free=%d", c.Len(), b.FreeBlocks())
	}
	if err := b.Check([]*Chain{&c}); err != nil {
		t.Fatal(err)
	}
}

func TestConsumeIsFIFO(t *testing.T) {
	// Two interleaved allocations into one chain must release from the
	// head: allocating after a partial consume and consuming the rest
	// must never corrupt the free list.
	b := mustBuffer(t, 8)
	var c Chain
	if err := b.Allocate(&c, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Allocate(&c, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Consume(&c, 3); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("chain len = %d, want 2", c.Len())
	}
	if err := b.Allocate(&c, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.Consume(&c, 6); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || b.FreeBlocks() != 8 {
		t.Fatalf("final: len=%d free=%d", c.Len(), b.FreeBlocks())
	}
}

func TestAllocateNoSpace(t *testing.T) {
	b := mustBuffer(t, 4)
	var c Chain
	if err := b.Allocate(&c, 5); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Allocate(5/4) = %v, want ErrNoSpace", err)
	}
	// Failure must have no side effects.
	if b.FreeBlocks() != 4 || c.Len() != 0 {
		t.Fatalf("failed alloc mutated state: free=%d len=%d", b.FreeBlocks(), c.Len())
	}
	if err := b.Allocate(&c, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.Allocate(&c, 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Allocate on full = %v, want ErrNoSpace", err)
	}
}

func TestConsumeUnderflow(t *testing.T) {
	b := mustBuffer(t, 4)
	var c Chain
	if err := b.Consume(&c, 1); !errors.Is(err, ErrUnderflow) {
		t.Fatalf("Consume on empty = %v, want ErrUnderflow", err)
	}
	if err := b.Allocate(&c, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Consume(&c, 3); !errors.Is(err, ErrUnderflow) {
		t.Fatalf("Consume(3/2) = %v, want ErrUnderflow", err)
	}
}

func TestBadCounts(t *testing.T) {
	b := mustBuffer(t, 4)
	var c Chain
	if err := b.Allocate(&c, 0); err == nil {
		t.Error("Allocate(0) succeeded")
	}
	if err := b.Allocate(&c, -1); err == nil {
		t.Error("Allocate(-1) succeeded")
	}
	if err := b.Consume(&c, 0); err == nil {
		t.Error("Consume(0) succeeded")
	}
}

func TestMultipleChainsShareBuffer(t *testing.T) {
	b := mustBuffer(t, 10)
	chains := make([]*Chain, 3)
	for i := range chains {
		chains[i] = &Chain{}
		if err := b.Allocate(chains[i], 3); err != nil {
			t.Fatal(err)
		}
	}
	if b.FreeBlocks() != 1 {
		t.Fatalf("free = %d, want 1", b.FreeBlocks())
	}
	if err := b.Check(chains); err != nil {
		t.Fatal(err)
	}
	// Release the middle chain; others must be untouched.
	if err := b.Consume(chains[1], 3); err != nil {
		t.Fatal(err)
	}
	if b.FreeBlocks() != 4 || chains[0].Len() != 3 || chains[2].Len() != 3 {
		t.Fatalf("after middle release: free=%d lens=%d,%d,%d",
			b.FreeBlocks(), chains[0].Len(), chains[1].Len(), chains[2].Len())
	}
	if err := b.Check(chains); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRandomWorkload drives a random allocate/consume schedule
// across many chains, checking conservation and structural invariants
// after every operation — the allocator equivalent of the paper's
// weight-management-table correctness.
func TestPropertyRandomWorkload(t *testing.T) {
	const blocks = 64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := mustBuffer(t, blocks)
		chains := make([]*Chain, 8)
		for i := range chains {
			chains[i] = &Chain{}
		}
		outstanding := 0
		for op := 0; op < 300; op++ {
			c := chains[rng.Intn(len(chains))]
			if rng.Intn(2) == 0 {
				n := 1 + rng.Intn(16)
				err := b.Allocate(c, n)
				if n <= b.FreeBlocks()+0 && err != nil && !errors.Is(err, ErrNoSpace) {
					t.Logf("unexpected alloc error: %v", err)
					return false
				}
				if err == nil {
					outstanding += n
				}
			} else if c.Len() > 0 {
				n := 1 + rng.Intn(c.Len())
				if err := b.Consume(c, n); err != nil {
					t.Logf("unexpected consume error: %v", err)
					return false
				}
				outstanding -= n
			}
			if b.UsedBlocks() != outstanding {
				t.Logf("conservation violated: used=%d outstanding=%d", b.UsedBlocks(), outstanding)
				return false
			}
			if err := b.Check(chains); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCheckDetectsLeak(t *testing.T) {
	b := mustBuffer(t, 4)
	var c Chain
	if err := b.Allocate(&c, 2); err != nil {
		t.Fatal(err)
	}
	// Report no chains: the two allocated blocks look leaked.
	if err := b.Check(nil); err == nil {
		t.Error("Check missed leaked blocks")
	}
}
