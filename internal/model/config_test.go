package model

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func TestConfigAddGet(t *testing.T) {
	cf := NewConfig()
	c := geom.Disc(1, 2, 3)
	id := cf.Add(c)
	if cf.Len() != 1 {
		t.Fatalf("Len = %d", cf.Len())
	}
	if got := cf.Get(id); got != c {
		t.Fatalf("Get = %+v", got)
	}
}

func TestConfigRemoveAndRecycle(t *testing.T) {
	cf := NewConfig()
	a := cf.Add(geom.Ellipse{X: 1})
	b := cf.Add(geom.Ellipse{X: 2})
	cf.Remove(a)
	if cf.Alive(a) {
		t.Fatal("removed ID still alive")
	}
	if !cf.Alive(b) {
		t.Fatal("unrelated ID died")
	}
	c := cf.Add(geom.Ellipse{X: 3})
	if c != a {
		t.Fatalf("free list not recycled: got %d, want %d", c, a)
	}
	if cf.Get(c).X != 3 {
		t.Fatal("recycled slot has stale circle")
	}
}

func TestConfigUpdate(t *testing.T) {
	cf := NewConfig()
	id := cf.Add(geom.Disc(1, 0, 2))
	cf.Update(id, geom.Disc(5, 0, 6))
	if got := cf.Get(id); got.X != 5 || got.Rx != 6 {
		t.Fatalf("Update failed: %+v", got)
	}
}

func TestConfigPanicsOnDeadAccess(t *testing.T) {
	cf := NewConfig()
	id := cf.Add(geom.Ellipse{})
	cf.Remove(id)
	for name, fn := range map[string]func(){
		"Get":    func() { cf.Get(id) },
		"Update": func() { cf.Update(id, geom.Ellipse{}) },
		"Remove": func() { cf.Remove(id) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on dead ID did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConfigDensePick(t *testing.T) {
	cf := NewConfig()
	ids := map[int]bool{}
	for i := 0; i < 10; i++ {
		ids[cf.Add(geom.Ellipse{X: float64(i)})] = true
	}
	cf.Remove(cf.IDAt(3))
	cf.Remove(cf.IDAt(0))
	if cf.Len() != 8 {
		t.Fatalf("Len = %d", cf.Len())
	}
	seen := map[int]bool{}
	for i := 0; i < cf.Len(); i++ {
		id := cf.IDAt(i)
		if !cf.Alive(id) {
			t.Fatalf("dense list contains dead ID %d", id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d in dense list", id)
		}
		seen[id] = true
	}
}

func TestConfigForEachAndCircles(t *testing.T) {
	cf := NewConfig()
	cf.Add(geom.Ellipse{X: 1})
	cf.Add(geom.Ellipse{X: 2})
	n := 0
	sum := 0.0
	cf.ForEach(func(id int, c geom.Ellipse) { n++; sum += c.X })
	if n != 2 || sum != 3 {
		t.Fatalf("ForEach visited %d circles, sum %v", n, sum)
	}
	if len(cf.Circles()) != 2 {
		t.Fatal("Circles length wrong")
	}
}

func TestConfigCloneIndependent(t *testing.T) {
	cf := NewConfig()
	id := cf.Add(geom.Ellipse{X: 1})
	cp := cf.Clone()
	cp.Update(id, geom.Ellipse{X: 9})
	cp.Add(geom.Ellipse{X: 2})
	if cf.Get(id).X != 1 || cf.Len() != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestConfigStress(t *testing.T) {
	cf := NewConfig()
	r := rng.New(1)
	live := map[int]geom.Ellipse{}
	for i := 0; i < 20000; i++ {
		if cf.Len() == 0 || r.Float64() < 0.6 {
			c := geom.Disc(r.Float64(), r.Float64(), r.Float64())
			live[cf.Add(c)] = c
		} else {
			id := cf.IDAt(r.Intn(cf.Len()))
			if cf.Get(id) != live[id] {
				t.Fatalf("step %d: stored circle mismatch", i)
			}
			cf.Remove(id)
			delete(live, id)
		}
	}
	if cf.Len() != len(live) {
		t.Fatalf("Len %d != %d live", cf.Len(), len(live))
	}
}
