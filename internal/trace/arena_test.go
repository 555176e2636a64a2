package trace

import (
	"testing"

	"prophet/internal/machine"
	"prophet/internal/tree"
)

// TestProfileArenaEquivalent checks that an arena-backed profile run
// produces the same tree as the heap path, including after the arena has
// been reset and its nodes recycled.
func TestProfileArenaEquivalent(t *testing.T) {
	want, _, err := Profile(figure4Program, machine.Default().DRAM)
	if err != nil {
		t.Fatal(err)
	}
	a := tree.NewArena()
	for round := 0; round < 3; round++ {
		got, _, err := ProfileArena(figure4Program, machine.Default().DRAM, a)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		assertSameTree(t, want, got)
		a.Reset()
	}
}

// TestProfileArenaSteadyState checks that repeated profile-discard cycles
// reach a fixed point: the warm arena hands out the same node count every
// round without growing.
func TestProfileArenaSteadyState(t *testing.T) {
	a := tree.NewArena()
	if _, _, err := ProfileArena(figure4Program, machine.Default().DRAM, a); err != nil {
		t.Fatal(err)
	}
	warm := a.Allocated()
	if warm == 0 {
		t.Fatal("arena unused by ProfileArena")
	}
	for round := 0; round < 5; round++ {
		a.Reset()
		if _, _, err := ProfileArena(figure4Program, machine.Default().DRAM, a); err != nil {
			t.Fatal(err)
		}
		if got := a.Allocated(); got != warm {
			t.Fatalf("round %d: arena handed out %d nodes, want %d", round, got, warm)
		}
	}
}

// assertSameTree compares trees structurally, treating nil and empty
// Children the same (recycled arena nodes keep empty slices).
func assertSameTree(t *testing.T, want, got *tree.Node) {
	t.Helper()
	if want.Kind != got.Kind || want.Name != got.Name || want.Len != got.Len ||
		want.LockID != got.LockID || want.NoWait != got.NoWait ||
		want.Pipeline != got.Pipeline || want.Repeat != got.Repeat ||
		want.Mem != got.Mem {
		t.Fatalf("node mismatch:\nwant %+v\ngot  %+v", *want, *got)
	}
	if len(want.Children) != len(got.Children) {
		t.Fatalf("child count mismatch under %v %q: want %d got %d",
			want.Kind, want.Name, len(want.Children), len(got.Children))
	}
	for i := range want.Children {
		assertSameTree(t, want.Children[i], got.Children[i])
	}
}

// BenchmarkProfileArena measures a profile-discard cycle through a warm
// arena; compare against BenchmarkProfileHeap for the node-storage win.
func BenchmarkProfileArena(b *testing.B) {
	a := tree.NewArena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Reset()
		if _, _, err := ProfileArena(figure4Program, machine.Default().DRAM, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileHeap is the heap baseline for BenchmarkProfileArena.
func BenchmarkProfileHeap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Profile(figure4Program, machine.Default().DRAM); err != nil {
			b.Fatal(err)
		}
	}
}
