package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// goldenCall renders what one V-cycle Repartition call decided: the cut
// after the call, every moved count, a hash of the assignment and each
// level's dissolved/matched group counts.
func goldenCall(st *Stats, a *partition.Assignment) string {
	h := fnv.New64a()
	for _, q := range a.Part {
		fmt.Fprintf(h, "%d,", q)
	}
	refined := 0
	if st.Refine != nil {
		refined = st.Refine.Moved
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cut=%d/%g new=%d bal=%d coarse=%d vref=%d ref=%d part=%016x lv=",
		st.CutAfter.Total, st.CutAfter.TotalWeight, st.NewAssigned, st.BalanceMoved,
		st.CoarseMoved, st.VCycleRefined, refined, h.Sum64())
	for i, ls := range st.Levels {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d/%d", ls.Dissolved, ls.Matched)
	}
	return b.String()
}

// goldenHistory runs a cold V-cycle call from a flood-filled assignment
// plus five warm calls of eight random edits each, and renders every call.
func goldenHistory(t *testing.T, g *graph.Graph, procs int) []string {
	t.Helper()
	a := partition.New(g.Order(), 8)
	for v := range a.Part {
		a.Part[v] = 0
	}
	e := New(g, Options{
		Refine:      true,
		Parallelism: procs,
		Multilevel:  MultilevelOptions{Enabled: true, Seed: 1},
	})
	defer e.Close()
	rng := rand.New(rand.NewSource(23))
	var out []string
	for call := 0; call < 6; call++ {
		if call > 0 {
			for k := 0; k < 8; k++ {
				randomEdit(g, a, rng)
			}
		}
		st, err := e.Repartition(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(g); err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenCall(st, a))
	}
	return out
}

// TestVCycleGoldenOutputs pins the V-cycle's decisions on a 3×10⁴ grid
// and a power-law graph to values recorded before the coarse-level
// bookkeeping (group aggregation, coarse edge insertion, batched
// dissolve, sorted-boundary cut polls) was made linear-time: that
// rewrite changed speed only, so every cut, moved count and per-level
// dissolve/match count must stay exactly as recorded, at every worker
// count.
func TestVCycleGoldenOutputs(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *graph.Graph
		want []string
	}{
		{"grid150x200", func() *graph.Graph { return graph.Grid(150, 200) }, []string{
			"cut=937/937 new=0 bal=132 coarse=26070 vref=62 ref=2108 part=c09f38dbfd0ca725 lv=0/15786 0/8162 0/4199 0/2161 0/1114 0/576 0/297 0/155 0/81",
			"cut=929/929 new=0 bal=2 coarse=1 vref=0 ref=2323 part=a53aaf9103540548 lv=201/302 691/802 936/1036 923/1002 737/792 489/523 287/317 155/173 81/94",
			"cut=906/906 new=0 bal=110 coarse=1 vref=3 ref=2723 part=df23199ebd2241bf lv=89/133 355/395 632/666 763/787 704/715 526/535 317/316 173/172 94/93",
			"cut=897/897 new=0 bal=3 coarse=1 vref=0 ref=2521 part=4e4a4c4bde9f891c lv=76/111 279/318 483/512 587/613 0/1201 0/634 0/335 0/180 0/98",
			"cut=894/894 new=0 bal=1 coarse=2 vref=0 ref=2541 part=49b6a24422f5c10a lv=38/62 181/206 360/382 508/523 568/580 474/486 305/315 180/186 98/104",
			"cut=892/892 new=0 bal=4 coarse=0 vref=0 ref=2494 part=d206ac0d33a64269 lv=25/37 115/133 243/262 0/2286 0/1193 0/628 0/333 0/178 0/97",
		}},
		{"powerlaw10k", func() *graph.Graph {
			g, err := graph.PowerLaw(10000, 4, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, []string{
			"cut=22011/22011 new=0 bal=3 coarse=8654 vref=1357 ref=7760 part=e4a9029b19bba9d5 lv=0/5094 0/2580 0/1300 0/655 0/330 0/167 0/86",
			"cut=21840/21840 new=0 bal=2 coarse=2 vref=2 ref=5480 part=37ffb5c2a7d422bc lv=1629/1849 2569/2765 1300/1441 655/751 330/390 167/205 86/112",
			"cut=21710/21710 new=0 bal=2 coarse=1 vref=0 ref=4572 part=3080a107144e182f lv=458/614 2253/2374 1441/1500 751/773 390/400 205/210 112/113",
			"cut=21618/21618 new=0 bal=6 coarse=3 vref=4 ref=4066 part=e7abc8345d4ada94 lv=293/401 0/2916 0/1517 0/794 0/418 0/225 0/124",
			"cut=21561/21561 new=0 bal=2 coarse=1 vref=0 ref=3384 part=cef2e0a5ae797b54 lv=257/356 1955/2051 1516/1565 794/807 418/417 225/216 124/112",
			"cut=21538/21538 new=0 bal=2 coarse=0 vref=0 ref=3478 part=a903ef3d2e2eac13 lv=185/262 1650/1732 1565/1619 807/840 0/439 0/232 0/126",
		}},
	}
	for _, c := range cases {
		for _, procs := range []int{1, 4} {
			got := goldenHistory(t, c.mk(), procs)
			if len(got) != len(c.want) {
				t.Errorf("%s procs=%d: got %d calls, want %d:\n%s", c.name, procs, len(got), len(c.want), strings.Join(got, "\n"))
				continue
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("%s procs=%d call %d:\n got  %s\n want %s", c.name, procs, i, got[i], c.want[i])
				}
			}
		}
	}
}
