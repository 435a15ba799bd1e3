package sim

import (
	"math/rand"
	"testing"
)

// TestFlagBitmap checks the bitmap accessors against a bool-per-partition
// model at sizes on and off the word boundary: next finds exactly the
// flagged-or-always partitions in order within any sub-range, take
// reports and clears only the flag, and wakeAll flags every partition and
// sets no bit past the last one.
func TestFlagBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, np := range []int{0, 1, 63, 64, 65, 128, 130, 1393} {
		words := (np + 63) / 64
		c := &CCSS{flags: make([]uint64, words), always: make([]uint64, words),
			parts: PartTable{rows: make([]partRow, np)}}
		flag, always := make([]bool, np), make([]bool, np)
		for p := 0; p < np; p++ {
			if rng.Intn(4) == 0 {
				c.wake(int32(p))
				flag[p] = true
			}
			if rng.Intn(16) == 0 {
				c.stopAt(int32(p))
				always[p] = true
			}
		}
		for trial := 0; trial < 200; trial++ {
			start, end := int32(0), int32(np)
			if trial > 0 && np > 0 {
				start = int32(rng.Intn(np))
				end = start + int32(rng.Intn(np-int(start)+1))
			}
			var want []int32
			for p := start; p < end; p++ {
				if flag[p] || always[p] {
					want = append(want, p)
				}
			}
			var got []int32
			for p := c.next(start, end); p < end; p = c.next(p+1, end) {
				got = append(got, p)
			}
			if len(got) != len(want) {
				t.Fatalf("np=%d [%d,%d): next found %d, model %d",
					np, start, end, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("np=%d [%d,%d): stop %d is %d, model %d", np, start, end, i, got[i], want[i])
				}
			}
		}
		for p := 0; p < np; p++ {
			if c.take(int32(p)) != flag[p] || c.take(int32(p)) {
				t.Fatalf("np=%d: take(%d) disagrees with the model, or did not clear", np, p)
			}
		}
		c.wakeAll()
		for p := 0; p < np; p++ {
			if !c.take(int32(p)) {
				t.Fatalf("np=%d: wakeAll left partition %d unflagged", np, p)
			}
			c.wake(int32(p))
		}
		for w, x := range c.flags {
			if hi := np - w*64; hi < 64 && x>>hi != 0 {
				t.Fatalf("np=%d: wakeAll set bits past the last partition: word %d = %#x", np, w, x)
			}
		}
	}
}
