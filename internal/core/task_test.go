package core

import (
	"strings"
	"testing"
)

func rect(name string, procs int, dur, deadline float64) Task {
	return Task{Name: name, Procs: procs, Duration: dur, Deadline: deadline}
}

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		name string
		task Task
		want string // substring of error, "" for ok
	}{
		{"ok rect", rect("a", 2, 3, 10), ""},
		{"zero procs", rect("a", 0, 3, 10), "procs"},
		{"negative duration", rect("a", 2, -1, 10), "duration"},
		{"zero duration", rect("a", 2, 0, 10), "duration"},
		{"ok malleable", Task{Name: "m", Malleable: true, Work: 8, MaxProcs: 4}, ""},
		{"malleable no work", Task{Name: "m", Malleable: true, Work: 0, MaxProcs: 4}, "work"},
		{"malleable no procs", Task{Name: "m", Malleable: true, Work: 8, MaxProcs: 0}, "max procs"},
	}
	for _, c := range cases {
		err := c.task.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestTaskArea(t *testing.T) {
	if got := rect("a", 4, 2.5, 0).Area(); !timeEq(got, 10) {
		t.Errorf("rect area = %v, want 10", got)
	}
	m := Task{Malleable: true, Work: 7, MaxProcs: 3}
	if got := m.Area(); !timeEq(got, 7) {
		t.Errorf("malleable area = %v, want 7", got)
	}
}

func TestMakeMalleablePreservesArea(t *testing.T) {
	orig := rect("a", 4, 25, 100)
	m := orig.MakeMalleable()
	if !m.Malleable {
		t.Fatal("not malleable")
	}
	if m.MaxProcs != 4 {
		t.Errorf("MaxProcs = %d, want 4 (degree of concurrency)", m.MaxProcs)
	}
	if !timeEq(m.Area(), orig.Area()) {
		t.Errorf("area changed: %v -> %v", orig.Area(), m.Area())
	}
	// Idempotent on already-malleable tasks.
	if mm := m.MakeMalleable(); mm != m {
		t.Error("MakeMalleable not idempotent")
	}
}

func TestChainValidate(t *testing.T) {
	good := Chain{Name: "c", Tasks: []Task{rect("a", 1, 1, 5), rect("b", 1, 1, 9)}}
	if err := good.Validate(); err != nil {
		t.Errorf("good chain: %v", err)
	}
	empty := Chain{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty chain accepted")
	}
	backward := Chain{Name: "b", Tasks: []Task{rect("a", 1, 1, 9), rect("b", 1, 1, 5)}}
	if err := backward.Validate(); err == nil {
		t.Error("decreasing deadlines accepted")
	}
}

func TestJobValidate(t *testing.T) {
	j := Job{ID: 1, Release: 10, Chains: []Chain{
		{Name: "only", Tasks: []Task{rect("a", 1, 1, 15)}},
	}}
	if err := j.Validate(); err != nil {
		t.Errorf("good job: %v", err)
	}
	if (Job{ID: 2}).Validate() == nil {
		t.Error("chainless job accepted")
	}
	early := Job{ID: 3, Release: 10, Chains: []Chain{
		{Name: "c", Tasks: []Task{rect("a", 1, 1, 5)}},
	}}
	if early.Validate() == nil {
		t.Error("deadline before release accepted")
	}
}

func TestJobTunableAndArea(t *testing.T) {
	c1 := Chain{Name: "1", Tasks: []Task{rect("a", 2, 5, 100)}}  // area 10
	c2 := Chain{Name: "2", Tasks: []Task{rect("b", 4, 10, 100)}} // area 40
	j := Job{Chains: []Chain{c1, c2}}
	if !j.Tunable() {
		t.Error("two-chain job not tunable")
	}
	if got := j.Area(); !timeEq(got, 10) {
		t.Errorf("Area = %v, want cheapest chain 10", got)
	}
	if (Job{Chains: []Chain{c1}}).Tunable() {
		t.Error("single-chain job tunable")
	}
	if got := (Job{}).Area(); got != 0 {
		t.Errorf("empty job area = %v, want 0", got)
	}
}

func TestJobMakeMalleable(t *testing.T) {
	j := Job{Chains: []Chain{
		{Tasks: []Task{rect("a", 4, 25, 100), rect("b", 8, 5, 200)}},
		{Tasks: []Task{rect("c", 2, 50, 300)}},
	}}
	m := j.MakeMalleable()
	for ci, c := range m.Chains {
		for ti, task := range c.Tasks {
			if !task.Malleable {
				t.Errorf("chain %d task %d not malleable", ci, ti)
			}
			if !timeEq(task.Area(), j.Chains[ci].Tasks[ti].Area()) {
				t.Errorf("chain %d task %d area changed", ci, ti)
			}
		}
	}
	// Original untouched.
	if j.Chains[0].Tasks[0].Malleable {
		t.Error("MakeMalleable mutated the receiver")
	}
}

func TestPlacementAccessors(t *testing.T) {
	pl := Placement{JobID: 7, Chain: 1, Tasks: []TaskPlacement{
		{Task: 0, Start: 2, Finish: 6, Procs: 4},
		{Task: 1, Start: 6, Finish: 11, Procs: 2},
	}}
	if got := pl.Start(); !timeEq(got, 2) {
		t.Errorf("Start = %v, want 2", got)
	}
	if got := pl.Finish(); !timeEq(got, 11) {
		t.Errorf("Finish = %v, want 11", got)
	}
	if got := pl.Area(); !timeEq(got, 4*4+2*5) {
		t.Errorf("Area = %v, want 26", got)
	}
	var empty Placement
	if empty.Start() != 0 || empty.Finish() != 0 {
		t.Error("empty placement accessors not zero")
	}
}

// TestValidateChainLimit: a job may offer at most MaxChains paths, as a
// chain job or as a DAG job.
func TestValidateChainLimit(t *testing.T) {
	chain := Chain{Tasks: []Task{rect("a", 1, 1, 10)}}
	j := Job{ID: 1, Chains: make([]Chain, MaxChains)}
	for i := range j.Chains {
		j.Chains[i] = chain
	}
	if err := j.Validate(); err != nil {
		t.Fatalf("job with MaxChains chains: %v", err)
	}
	j.Chains = append(j.Chains, chain)
	if j.Validate() == nil {
		t.Fatal("job with MaxChains+1 chains accepted")
	}

	dag := DAG{Tasks: []DAGTask{{Task: rect("a", 1, 1, 10)}}}
	d := DAGJob{ID: 2, Alts: make([]DAG, MaxChains+1)}
	for i := range d.Alts {
		d.Alts[i] = dag
	}
	if d.Validate() == nil {
		t.Fatal("DAG job with MaxChains+1 alternatives accepted")
	}
}
