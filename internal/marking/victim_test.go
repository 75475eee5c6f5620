package marking

import (
	"testing"

	"repro/internal/topology"
)

// figure4 is the victim branch of Figure 4 written with the exported
// vector algebra — decode the whole vector, take the victim's
// coordinate, subtract (XOR on a hypercube), wrap on a torus, map back
// to an id. It is the reference Victim.Source is compared against.
func figure4(d *DDPM, dst topology.NodeID, mf uint16) (topology.NodeID, bool) {
	net := d.Net()
	v := d.Codec().Decode(mf)
	x := net.CoordOf(dst)
	if _, ok := net.(*topology.Hypercube); ok {
		return net.IndexOf(x.Xor(topology.Coord(v))), true
	}
	s := x.Sub(topology.Coord(v))
	if net.Wraparound() {
		s = s.Mod(net.Dims())
	}
	if !topology.Contains(net, topology.Coord(s)) {
		return topology.None, false
	}
	return net.IndexOf(topology.Coord(s)), true
}

// victimFabrics is every shape of decode: power-of-two and odd radixes,
// tori whose fields span many wraps of their radix (4×4: 32×, 2×2: 64×,
// 3×5: 819×), 3-D, the paper's explicit 5/5/6 split, and hypercubes
// from one dimension to the MF-filling sixteen.
func victimFabrics(t testing.TB) []*DDPM {
	nets := []topology.Network{
		topology.NewTorus(64, 64), topology.NewTorus(4, 4), topology.NewTorus(3, 5),
		topology.NewTorus(2, 2), topology.NewTorus(8, 8, 8),
		topology.NewMesh(8, 8), topology.NewMesh(5, 7), topology.NewMesh(4, 4, 4),
		topology.NewHypercube(16), topology.NewHypercube(5), topology.NewHypercube(1),
	}
	var out []*DDPM
	for _, net := range nets {
		d, err := NewDDPM(net)
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		out = append(out, d)
	}
	split, err := NewSignedFieldCodec(5, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDDPMWithCodec(topology.NewMesh(16, 16, 32), split)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, d)
}

func TestVictimSourceMatchesFigure4Exhaustively(t *testing.T) {
	for _, d := range victimFabrics(t) {
		n := d.Net().NumNodes()
		for _, dst := range []topology.NodeID{0, topology.NodeID(n / 2), topology.NodeID(n / 3), topology.NodeID(n - 1)} {
			at := d.At(dst)
			for m := 0; m < 1<<16; m++ {
				mf := uint16(m)
				want, wantOK := figure4(d, dst, mf)
				if got, ok := at.Source(mf); got != want || ok != wantOK {
					t.Fatalf("%s victim %d MF %04x: At.Source = %d, %v; Figure 4 = %d, %v",
						d.Net().Name(), dst, mf, got, ok, want, wantOK)
				}
				if got, ok := d.IdentifySource(dst, mf); got != want || ok != wantOK {
					t.Fatalf("%s victim %d MF %04x: IdentifySource = %d, %v; Figure 4 = %d, %v",
						d.Net().Name(), dst, mf, got, ok, want, wantOK)
				}
			}
		}
	}
}

func TestVictimDecodeDoesNotAllocate(t *testing.T) {
	var sink topology.NodeID
	for _, net := range []topology.Network{topology.NewMesh(8, 8), topology.NewTorus(3, 5), topology.NewHypercube(16)} {
		d, err := NewDDPM(net)
		if err != nil {
			t.Fatal(err)
		}
		dst := topology.NodeID(net.NumNodes() - 1)
		at := d.At(dst)
		mf := uint16(0)
		for name, fn := range map[string]func(){
			"IdentifySource": func() { sink, _ = d.IdentifySource(dst, mf) },
			"At":             func() { at = d.At(dst) },
			"Source":         func() { sink, _ = at.Source(mf) },
		} {
			if a := testing.AllocsPerRun(200, func() { mf += 257; fn() }); a != 0 {
				t.Errorf("%s: %s allocates %v/op, want 0", net.Name(), name, a)
			}
		}
	}
	_ = sink
}

func BenchmarkVictimSource(b *testing.B) {
	for _, net := range []topology.Network{topology.NewMesh2D(128), topology.NewTorus(64, 64), topology.NewHypercube(16)} {
		d, _ := NewDDPM(net)
		at := d.At(topology.NodeID(net.NumNodes() / 3))
		b.Run(net.Name(), func(b *testing.B) {
			var sink topology.NodeID
			for i := 0; i < b.N; i++ {
				s, _ := at.Source(uint16(i) & 0x0f0f)
				sink += s
			}
			_ = sink
		})
	}
}
