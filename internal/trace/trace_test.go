package trace

import (
	"encoding/json"
	"errors"
	"repro/internal/eventq"
	"strings"
	"testing"

	"repro/internal/marking"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestTracerTransparency(t *testing.T) {
	// The traced scheme must produce byte-identical MFs to the bare
	// scheme on the same path.
	m := topology.NewMesh2D(4)
	bare, _ := marking.NewDDPM(m)
	traced, _ := marking.NewDDPM(m)
	var sb strings.Builder
	tr := New(traced, &sb)

	path := []topology.NodeID{0, 1, 2, 6, 10}
	pkA, pkB := &packet.Packet{}, &packet.Packet{}
	bare.OnInject(pkA)
	tr.OnInject(pkB)
	for i := 0; i+1 < len(path); i++ {
		bare.OnForward(path[i], path[i+1], pkA)
		tr.OnForward(path[i], path[i+1], pkB)
	}
	if pkA.Hdr.ID != pkB.Hdr.ID {
		t.Errorf("tracer perturbed the MF: %04x vs %04x", pkA.Hdr.ID, pkB.Hdr.ID)
	}
	if n := strings.Count(sb.String(), "\n"); n != 5 { // 1 inject + 4 forwards
		t.Errorf("logged %d events, want 5", n)
	}
}

func TestTracerOutputIsValidJSONL(t *testing.T) {
	m := topology.NewMesh2D(4)
	inner, _ := marking.NewDDPM(m)
	var sb strings.Builder
	tr := New(inner, &sb)
	pk := &packet.Packet{Hdr: packet.Header{TTL: 9, Src: 1, Dst: 2}}
	tr.OnInject(pk)
	tr.OnForward(0, 1, pk)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &obj); err != nil {
		t.Fatalf("inject line not JSON: %v", err)
	}
	if obj["kind"] != "inject" {
		t.Errorf("kind = %v", obj["kind"])
	}
	if err := json.Unmarshal([]byte(lines[1]), &obj); err != nil {
		t.Fatalf("forward line not JSON: %v", err)
	}
	if obj["kind"] != "forward" || obj["cur"] != float64(0) || obj["next"] != float64(1) {
		t.Errorf("forward obj = %v", obj)
	}
}

func TestTracerFilter(t *testing.T) {
	var sb strings.Builder
	tr := New(nil, &sb)
	tr.Filter = func(e Event) bool { return e.Kind == "forward" }
	pk := &packet.Packet{}
	tr.OnInject(pk)
	tr.OnForward(0, 1, pk)
	if n := strings.Count(sb.String(), "\n"); n != 1 {
		t.Errorf("logged %d events after filtering, want 1", n)
	}
	if strings.Contains(sb.String(), "inject") {
		t.Error("filtered event emitted")
	}
}

type failAfter struct{ n, limit int }

func (f *failAfter) Write(p []byte) (int, error) {
	f.n++
	if f.n > f.limit {
		return 0, errors.New("sink broke")
	}
	return len(p), nil
}

func TestTracerLatchesSinkError(t *testing.T) {
	fw := &failAfter{limit: 1}
	tr := New(nil, fw)
	pk := &packet.Packet{}
	tr.OnInject(pk)        // ok
	tr.OnForward(0, 1, pk) // sink breaks
	tr.OnForward(1, 2, pk) // suppressed
	if tr.Err() == nil {
		t.Error("sink error not latched")
	}
	if fw.n != 2 {
		t.Errorf("sink written %d times, want 2 (then suppressed)", fw.n)
	}
}

func TestTracerInsideNetsim(t *testing.T) {
	// End to end: the tracer rides the fabric and logs one inject plus
	// one forward per hop; DDPM identification through it stays exact.
	m := topology.NewMesh2D(4)
	d, _ := marking.NewDDPM(m)
	var sb strings.Builder
	tr := New(d, &sb)
	r := routing.NewRouter(m, routing.NewXY(m))
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	n, err := netsim.New(netsim.Config{Net: m, Router: r, Scheme: tr, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	var delivered *packet.Packet
	n.OnDeliver(func(_ eventq.Time, pk *packet.Packet) { delivered = pk })
	src := m.IndexOf(topology.Coord{0, 0})
	dst := m.IndexOf(topology.Coord{3, 3})
	n.Inject(packet.NewPacket(plan, src, dst, packet.ProtoTCPSYN, 0))
	n.RunAll(10000)
	if delivered == nil {
		t.Fatal("not delivered")
	}
	if got, ok := d.IdentifySource(dst, delivered.Hdr.ID); !ok || got != src {
		t.Errorf("identified %d, want %d", got, src)
	}
	// 1 inject + 6 forwards.
	if n := strings.Count(sb.String(), "\n"); n != 7 {
		t.Errorf("logged %d events, want 7", n)
	}
	if tr.Name() != "ddpm+trace" {
		t.Errorf("Name = %q", tr.Name())
	}
}
