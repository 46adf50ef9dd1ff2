package gpusim

import (
	"fmt"
	"sync"
)

// PerItem adapts a body written for one work-item to a KernelFunc. Each
// work-group runs its work-items as goroutines that meet at Item.Barrier;
// work-items that return early retire from the barrier, so uniform-exit
// bodies cannot deadlock. Every barrier release counts as one Group.Barrier
// crossing. A panic in any work-item is re-raised on the group's goroutine
// once the others have finished, naming the first work-item that panicked.
//
// PerItem is for bodies whose barriers a lane loop cannot express, such as
// the OpenCL C interpreter's, where barrier() may sit under any control
// flow. It costs a goroutine per work-item and a condition-variable
// broadcast per barrier.
func PerItem(fn func(wi *Item)) KernelFunc {
	return func(g *Group) {
		bar := &itemBarrier{g: g, active: g.local}
		bar.cond.L = &bar.mu
		var (
			wg      sync.WaitGroup
			panicMu sync.Mutex
			panicV  any
		)
		for l := range g.items {
			wi := &g.items[l]
			wi.bar = bar
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer bar.retire()
				defer func() {
					if r := recover(); r != nil {
						panicMu.Lock()
						if panicV == nil {
							panicV = fmt.Sprintf("work-item global=%d local=%d: %v", wi.global, wi.local, r)
						}
						panicMu.Unlock()
					}
				}()
				fn(wi)
			}()
		}
		wg.Wait()
		if panicV != nil {
			panic(panicV)
		}
	}
}

// itemBarrier is the work-group barrier of a PerItem body. It tolerates
// work-items retiring early (their slots stop being waited for).
type itemBarrier struct {
	g       *Group
	mu      sync.Mutex
	cond    sync.Cond
	active  int
	waiting int
	phase   uint64
}

func (b *itemBarrier) wait() {
	b.mu.Lock()
	phase := b.phase
	b.waiting++
	if b.waiting >= b.active {
		b.release()
	} else {
		for b.phase == phase {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

func (b *itemBarrier) retire() {
	b.mu.Lock()
	b.active--
	if b.active > 0 && b.waiting >= b.active {
		b.release()
	}
	b.mu.Unlock()
}

// release must be called with mu held.
func (b *itemBarrier) release() {
	b.waiting = 0
	b.phase++
	b.g.Barrier()
	b.cond.Broadcast()
}
