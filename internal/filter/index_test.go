package filter

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// mapBlockedAt is the locked-map rule BlockedAt answered with before
// the read index existed: the reference the index must agree with.
func mapBlockedAt(b *Blocklist, n topology.NodeID, now int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.blocked[n]
	return ok && (v.until == Permanent || v.until > now)
}

// Ids on both sides of every index edge: negative, page boundaries, the
// last id a 16-bit MF can name and ids past it.
var fuzzIDs = [...]topology.NodeID{
	-1 << 20, -2, -1, 0, 1, 7, 511, 512, 513, 4095, 65535, 65536, 70000, 1 << 20,
}

// Expiries and clock readings that straddle one another and the index's
// encodings of Permanent and an unencodable expiry.
var fuzzInstants = [...]int64{
	Permanent, 1, 5, 10, 11, 100, -5, math.MinInt64, math.MaxInt64 - 1, math.MaxInt64,
}

// runBlocklistOps decodes ops four bytes at a time — kind, id, instant,
// stamp — applies them to one list and checks after each that BlockedAt
// agrees with the locked-map rule for every touched id at every instant.
func runBlocklistOps(t *testing.T, ops []byte) {
	b := NewTTLBlocklist()
	b.SetOrigin(5)
	touched := map[topology.NodeID]bool{}
	for len(ops) >= 4 {
		kind, n := ops[0]%6, fuzzIDs[int(ops[1])%len(fuzzIDs)]
		at, stamp := fuzzInstants[int(ops[2])%len(fuzzInstants)], uint64(ops[3]%8)
		ops = ops[4:]
		touched[n] = true
		switch kind {
		case 0:
			b.BlockUntilFor(n, Permanent, 3)
		case 1:
			b.BlockUntilFor(n, at, 3)
		case 2:
			b.Unblock(n)
		case 3:
			b.ExpireEntries(at)
		case 4:
			b.ApplyRemote(Mutation{Stamp: stamp, Node: n, Until: at, Victim: 4}, stamp%3)
		case 5:
			b.ApplyRemote(Mutation{Stamp: stamp, Node: n, Unblock: true}, stamp%3)
		}
		for id := range touched {
			for _, now := range fuzzInstants {
				if got, want := b.BlockedAt(id, now), mapBlockedAt(b, id, now); got != want {
					t.Fatalf("BlockedAt(%d, %d) = %v, the map says %v", id, now, got, want)
				}
			}
		}
	}
}

func FuzzBlockedAtMatchesMap(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 2, 3, 0, 0, 1, 10, 3, 0, 3, 10, 4, 0})
	f.Add([]byte{1, 12, 9, 0, 1, 11, 9, 0, 3, 0, 8, 0, 4, 2, 9, 7, 5, 2, 0, 7})
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.NewStream(seed)
		ops := make([]byte, 256)
		for i := 0; i < len(ops); i += 8 {
			binary.LittleEndian.PutUint64(ops[i:], r.Uint64())
		}
		f.Add(ops)
	}
	f.Fuzz(runBlocklistOps)
}

// TestBlockedAtRacesWriters spins readers on BlockedAt while writers
// block, unblock, expire and apply remote writes across index pages and
// past the index: under -race it proves the index's loads and stores
// are synchronized, and throughout it a permanent block no writer
// touches must read blocked and a never-blocked id must not.
func TestBlockedAtRacesWriters(t *testing.T) {
	b := NewTTLBlocklist()
	const pinned, never = topology.NodeID(600), topology.NodeID(601)
	b.Block(pinned)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				n := topology.NodeID((i*37 + w*5000) % 70000)
				if n == pinned || n == never {
					continue
				}
				switch i % 4 {
				case 0:
					b.BlockUntilFor(n, int64(i), topology.None)
				case 1:
					b.Unblock(n)
				case 2:
					b.ExpireEntries(int64(i / 2))
				case 3:
					b.ApplyRemote(Mutation{Stamp: uint64(i), Node: n, Until: Permanent}, uint64(w+1))
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if !b.BlockedAt(pinned, int64(i)) || b.BlockedAt(never, int64(i)) {
					t.Error("a block no writer touched changed under concurrent writes")
					return
				}
				b.BlockedAt(topology.NodeID(i%70000), int64(i))
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}
