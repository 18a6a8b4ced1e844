package mpi

import (
	"fmt"
	"testing"
)

// splitWorkout exercises one Split end-to-end on any transport: rank
// renumbering, collectives inside the group, RecvAny isolation between
// groups, and interleaved parent-communicator traffic on the very same
// user tag the groups use.
func splitWorkout(c *Comm) {
	p, r := c.Size(), c.Rank()
	groups := 2
	if p < 2 {
		groups = 1
	}
	color := r % groups
	sub := c.Split(color)

	// Renumbering: sub-ranks are 0..n-1 in ascending parent rank order.
	wantSize := 0
	wantRank := -1
	for i := 0; i < p; i++ {
		if i%groups == color {
			if i == r {
				wantRank = wantSize
			}
			wantSize++
		}
	}
	if sub.Size() != wantSize || sub.Rank() != wantRank {
		panic(fmt.Sprintf("split rank %d: got (%d of %d), want (%d of %d)",
			r, sub.Rank(), sub.Size(), wantRank, wantSize))
	}

	// Collectives stay inside the group.
	got := sub.Bcast(0, color*100+7).(int)
	if got != color*100+7 {
		panic(fmt.Sprintf("split bcast leaked across groups: got %d in color %d", got, color))
	}
	all := sub.Gather(0, sub.Rank()*3)
	if sub.Rank() == 0 {
		if len(all) != sub.Size() {
			panic(fmt.Sprintf("split gather size %d, want %d", len(all), sub.Size()))
		}
		for i, v := range all {
			if v.(int) != i*3 {
				panic(fmt.Sprintf("split gather[%d] = %v", i, v))
			}
		}
	}
	sum := sub.AllreduceInt64(int64(sub.Rank()+1), func(a, b int64) int64 { return a + b })
	if want := int64(sub.Size() * (sub.Size() + 1) / 2); sum != want {
		panic(fmt.Sprintf("split allreduce = %d, want %d", sum, want))
	}

	// RecvAny isolation: both groups flood tag 5 at once, and the world
	// communicator crosses group boundaries on tag 5 too. Each group
	// leader must see exactly its own members' payloads, and the world
	// message must still be waiting afterwards.
	const tag = 5
	c.Send((r+1)%p, tag, 10_000+r)
	if sub.Rank() == 0 {
		for i := 1; i < sub.Size(); i++ {
			m := sub.RecvAny(tag)
			if v := m.Data.(int); v != color*1000+m.From {
				panic(fmt.Sprintf("group %d leader got %d from sub rank %d", color, v, m.From))
			}
		}
	} else {
		sub.Send(0, tag, color*1000+sub.Rank())
	}
	wm := c.Recv((r+p-1)%p, tag)
	if v := wm.Data.(int); v != 10_000+(r+p-1)%p {
		panic(fmt.Sprintf("world message corrupted by split traffic: %d", v))
	}
	c.Barrier()
}

func TestSplitInproc(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			if err := Run(p, splitWorkout); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSplitSimtime(t *testing.T) {
	for _, p := range []int{2, 5, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			mk1, err := RunSim(p, BlueGeneLike(), splitWorkout)
			if err != nil {
				t.Fatal(err)
			}
			mk2, err := RunSim(p, BlueGeneLike(), splitWorkout)
			if err != nil {
				t.Fatal(err)
			}
			if mk1 != mk2 {
				t.Fatalf("split under simtime nondeterministic: %v vs %v", mk1, mk2)
			}
		})
	}
}

func TestSplitTCP(t *testing.T) {
	RegisterType(0)
	RegisterType(int64(0))
	if err := RunTCP(4, splitWorkout); err != nil {
		t.Fatal(err)
	}
}

// TestSplitGroupsRunConcurrently pins the point of Split: two groups
// each run a master-worker exchange that would deadlock if one group's
// receives could swallow the other group's messages.
func TestSplitGroupsRunConcurrently(t *testing.T) {
	const p = 6
	err := Run(p, func(c *Comm) {
		color := c.Rank() % 2
		sub := c.Split(color)
		const rounds = 200
		if sub.Rank() == 0 {
			for i := 0; i < rounds*(sub.Size()-1); i++ {
				m := sub.RecvAny(1)
				sub.Send(m.From, 2, m.Data)
			}
		} else {
			for i := 0; i < rounds; i++ {
				sub.Send(0, 1, sub.Rank()*rounds+i)
				m := sub.Recv(0, 2)
				if m.Data.(int) != sub.Rank()*rounds+i {
					panic("echo corrupted across groups")
				}
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitRaceHammer is the -race stressor: many concurrent ranks in
// two groups exchanging on the same tags through the shared mailboxes,
// with world-communicator collectives interleaved.
func TestSplitRaceHammer(t *testing.T) {
	transports := []struct {
		name string
		run  func(p int, f func(c *Comm)) error
	}{
		{"inproc", Run},
		{"sim", func(p int, f func(c *Comm)) error { _, err := RunSim(p, BlueGeneLike(), f); return err }},
		{"tcp", RunTCP},
	}
	RegisterType(0)
	RegisterType(int64(0))
	for _, tr := range transports {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			const p = 8
			err := tr.run(p, func(c *Comm) {
				sub := c.Split(c.Rank() % 2)
				next := (sub.Rank() + 1) % sub.Size()
				prev := (sub.Rank() + sub.Size() - 1) % sub.Size()
				for i := 0; i < 60; i++ {
					sub.Send(next, 3, i)
					if m := sub.Recv(prev, 3); m.Data.(int) != i {
						panic(fmt.Sprintf("ring round %d corrupted", i))
					}
					if i%20 == 0 {
						sub.Barrier()
						c.AllreduceInt64(1, func(a, b int64) int64 { return a + b })
					}
				}
				c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSplitValidation(t *testing.T) {
	err := Run(1, func(c *Comm) {
		sub := c.Split(0)
		func() {
			defer func() {
				if recover() == nil {
					panic("nested Split did not panic")
				}
			}()
			sub.Split(0)
		}()
		func() {
			defer func() {
				if recover() == nil {
					panic("tag wildcard on split comm did not panic")
				}
			}()
			sub.Send(0, 4, nil)
			sub.Recv(0, Any)
		}()
	})
	if err != nil {
		t.Fatal(err)
	}
}
