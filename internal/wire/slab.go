package wire

// Record slabs: the batch currency of the ingest hot path. A frame is
// decoded once into a pooled Slab ([]Record plus an optional parallel
// trace-context slice) instead of driving a per-record callback; the
// pipeline then partitions the slab by victim shard in place and hands
// each shard a sub-batch *view* of the slab as one channel element.
// Reference counting (one count per in-flight view plus the
// submitter's) returns the slab to its pool when the last worker is
// done, so the untraced path recycles every buffer it touches.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/topology"
)

// SlabCap is a slab's record capacity. It equals the largest record
// count a single wire frame can carry, so any one frame always decodes
// into an empty slab without splitting.
const SlabCap = MaxRecordsPerFrame

// ErrSlabFull is returned by the append-decoders when a frame's records
// would not fit in the slab's remaining capacity; the caller submits
// the slab and retries the frame on a fresh one.
var ErrSlabFull = fmt.Errorf("wire: slab full")

// ShardGroup is one shard's contiguous record range in a partitioned
// slab (see Slab.Partition): records [Start, End) all shard to Shard,
// grouped by victim within the range.
type ShardGroup struct {
	Shard      int
	Start, End int
}

// Slab is a reusable batch of decoded records. Recs (and, for traced
// frames, the parallel Ctxs) are the payload; everything else is
// recycled scratch. Get one from a SlabPool, fill it with the Append*
// decoders, hand it to the pipeline, and let reference counts return
// it: the pool's Get sets one reference for the caller, Retain adds
// one per handed-out view, Release drops one and recycles the slab
// when the count reaches zero.
//
// A slab is single-goroutine while being filled and partitioned; after
// the views are handed off, concurrent readers only ever read Recs and
// Ctxs, which no one mutates until the last Release.
type Slab struct {
	Recs []Record
	Ctxs []TraceContext // non-nil ⇒ parallel to Recs; zero ID = untraced record

	recsBuf, recsAlt []Record       // double buffer: decode target / scatter target
	ctxsBuf, ctxsAlt []TraceContext // allocated on first traced use
	vc               []int32        // per-victim counting-sort scratch, kept zeroed
	sc               []int32        // per-shard counting-sort scratch
	touched          []topology.NodeID
	groups           []ShardGroup

	// Credit, when set, is a session's slab-credit semaphore: the last
	// Release takes one token from it. The pool clears it on recycle.
	Credit chan struct{}

	refs atomic.Int32
	pool *SlabPool
}

// Len and Free report the record count and the remaining capacity.
func (s *Slab) Len() int  { return len(s.Recs) }
func (s *Slab) Free() int { return SlabCap - len(s.Recs) }

// Reset empties the slab for refilling. The pool does this on recycle;
// callers only need it when reusing a slab they never submitted.
func (s *Slab) Reset() {
	s.Recs = s.recsBuf[:0]
	s.Ctxs = nil
}

// Retain adds one reference (one per sub-batch view handed off).
func (s *Slab) Retain() { s.refs.Add(1) }

// Release drops one reference; the last release recycles the slab into
// its pool. After calling Release the caller must not touch the slab.
func (s *Slab) Release() {
	if n := s.refs.Add(-1); n == 0 {
		s.pool.put(s)
	} else if n < 0 {
		panic("wire: slab over-released")
	}
}

// ensureCtxs materializes the trace-context slice, zero-filled in
// parallel with the records already present — the mixed-frame case
// where an untraced frame landed in the slab before a traced one.
func (s *Slab) ensureCtxs() {
	if s.Ctxs != nil {
		return
	}
	if s.ctxsBuf == nil {
		s.ctxsBuf = make([]TraceContext, 0, SlabCap)
	}
	s.Ctxs = s.ctxsBuf[:len(s.Recs)]
	for i := range s.Ctxs {
		s.Ctxs[i] = TraceContext{}
	}
}

// Append adds one record (the single-record submit shim, the JSONL
// replay batcher, the cluster's forward batches). Past SlabCap the
// slice grows off the pooled buffer — one allocation, dropped at
// Reset; only the frame decoders hold themselves to SlabCap.
func (s *Slab) Append(rec Record) {
	if s.Recs == nil {
		s.Recs = s.recsBuf[:0]
	}
	s.Recs = append(s.Recs, rec)
	if s.Ctxs != nil {
		s.Ctxs = append(s.Ctxs, TraceContext{})
	}
}

// AppendTraced adds one record with its trace context.
func (s *Slab) AppendTraced(tr TracedRecord) {
	if s.Recs == nil {
		s.Recs = s.recsBuf[:0]
	}
	s.ensureCtxs()
	s.Recs = append(s.Recs, tr.Record)
	s.Ctxs = append(s.Ctxs, tr.Ctx)
}

// AppendBatch verifies and decodes one batch payload of any record-
// bearing frame type into the slab and returns its frame-level header:
// the one decoder, behind the daemon's listeners and the cluster's
// forward sessions alike. Checks run in this order and any
// failure leaves the slab exactly as it was: ftype is a batch type, the
// payload is its layout's overhead plus whole records, the records fit
// (ErrSlabFull — the caller submits the slab and retries the frame on a
// fresh one, so no CRC work is spent on a frame that cannot land), the
// CRC tail matches.
//
// The trace lane follows the frames: a traced frame materializes it
// (zero contexts for what the slab already holds), an untraced frame
// landing beside a lane appends zero contexts. A traced forward's
// contexts carry the frame's origin next to their route stamp.
func (s *Slab) AppendBatch(ftype uint8, payload []byte) (h BatchHeader, err error) {
	l, ok := layoutOf(ftype)
	if !ok {
		return h, fmt.Errorf("%w: frame type %d carries no records", ErrBadFrame, ftype)
	}
	n, ok := l.count(len(payload))
	if !ok {
		return h, fmt.Errorf("%w: %s payload %d bytes", ErrBadFrame, l.name, len(payload))
	}
	if n > s.Free() {
		return h, ErrSlabFull
	}
	body := payload
	if l.sealed {
		if body, err = openSeal(payload); err != nil {
			return h, fmt.Errorf("%s frame: %w", l.name, err)
		}
	}
	h.Sealed, h.Forwarded = l.sealed, l.lead == leadOriginSeq
	if h.Forwarded {
		h.Origin = binary.BigEndian.Uint64(body[0:8])
	}
	if l.lead != 0 {
		h.Seq = binary.BigEndian.Uint64(body[l.lead-8 : l.lead])
	}
	body = body[l.lead:]

	at := len(s.Recs)
	if s.Recs == nil {
		s.Recs = s.recsBuf[:0]
	}
	if l.rec != RecordSize {
		s.ensureCtxs() // before the records grow: it back-fills to len(s.Recs)
	}
	s.Recs = s.Recs[:at+n]
	recs := s.Recs[at:]
	for i := range recs {
		recs[i] = decodeRecord(body[i*l.rec:])
	}
	if s.Ctxs == nil {
		return h, nil
	}
	s.Ctxs = s.Ctxs[:at+n]
	ctxs := s.Ctxs[at:]
	if l.rec == RecordSize {
		clear(ctxs)
		return h, nil
	}
	for i := range ctxs {
		c := body[i*l.rec+RecordSize : (i+1)*l.rec]
		ctxs[i] = TraceContext{
			ID:   binary.BigEndian.Uint64(c[0:8]),
			Sent: int64(binary.BigEndian.Uint64(c[8:16])),
		}
		if len(c) == FwdCtxSize {
			ctxs[i].Routed = int64(binary.BigEndian.Uint64(c[16:24]))
			ctxs[i].Origin = h.Origin
		}
	}
	return h, nil
}

// AppendSealedPayload is AppendBatch with the type fixed to TypeSealed.
// It and the next two exist for bench/, which times each as a layer
// row.
func (s *Slab) AppendSealedPayload(payload []byte) (seq uint64, err error) {
	h, err := s.AppendBatch(TypeSealed, payload)
	return h.Seq, err
}

// AppendTracedSealedPayload is AppendBatch for TypeTracedSealed.
func (s *Slab) AppendTracedSealedPayload(payload []byte) (seq uint64, err error) {
	h, err := s.AppendBatch(TypeTracedSealed, payload)
	return h.Seq, err
}

// AppendForwardedPayload is AppendBatch for TypeForwarded.
func (s *Slab) AppendForwardedPayload(payload []byte) (origin, seq uint64, err error) {
	h, err := s.AppendBatch(TypeForwarded, payload)
	return h.Origin, h.Seq, err
}

// AppendDatagramFrame decodes one complete frame from b — the UDP entry
// point, which accepts only the two bare batch types: a datagram has no
// session to dedup or ack a sealed frame against — and returns the
// bytes consumed, so callers loop over packed datagrams. ErrSlabFull
// leaves b unconsumed.
func (s *Slab) AppendDatagramFrame(b []byte) (consumed int, err error) {
	ftype, n, err := checkHeader(b)
	if err != nil {
		return 0, err
	}
	if len(b) < HeaderSize+n {
		return 0, fmt.Errorf("%w: truncated payload: have %d of %d bytes",
			ErrBadFrame, len(b)-HeaderSize, n)
	}
	if l, batch := layoutOf(ftype); !batch || l.sealed {
		return 0, fmt.Errorf("%w: frame type %d in a datagram", ErrBadFrame, ftype)
	}
	if _, err := s.AppendBatch(ftype, b[HeaderSize:HeaderSize+n]); err != nil {
		return 0, err
	}
	return HeaderSize + n, nil
}

// Keep compacts the slab to the records (and contexts) in ranges —
// ascending, disjoint [start, end) pairs — and returns how many remain:
// the session server's dedup of a burst.
func (s *Slab) Keep(ranges [][2]int) int {
	w := 0
	for _, r := range ranges {
		if r[0] != w {
			copy(s.Recs[w:], s.Recs[r[0]:r[1]])
			if s.Ctxs != nil {
				copy(s.Ctxs[w:], s.Ctxs[r[0]:r[1]])
			}
		}
		w += r[1] - r[0]
	}
	s.Recs = s.Recs[:w]
	if s.Ctxs != nil {
		s.Ctxs = s.Ctxs[:w]
	}
	return w
}

// Partition reorders the slab in place so that records are contiguous
// per victim shard (shard = victim mod nshards) and, within a shard's
// range, grouped by victim in first-touch order — one stable counting
// sort buys both the per-shard sub-batch views and the per-victim
// grouping the workers want, with no comparison sort anywhere. Records
// that fail validation (topo id mismatch or victim outside
// [0, numNodes)) are moved to the tail [valid:], originals' relative
// order preserved everywhere.
//
// The returned group slice is slab-owned scratch, valid until the next
// Partition; the record views it describes stay valid until the last
// Release.
func (s *Slab) Partition(topoID uint32, numNodes, nshards int) (groups []ShardGroup, valid int) {
	recs := s.Recs
	traced := s.Ctxs != nil
	if cap(s.vc) < numNodes {
		s.vc = make([]int32, numNodes)
	}
	vc := s.vc[:numNodes]

	// Count per victim; remember each victim's first touch so the
	// count array can be re-zeroed in O(distinct victims).
	s.touched = s.touched[:0]
	for i := range recs {
		if recs[i].Topo != topoID || recs[i].Victim < 0 || int(recs[i].Victim) >= numNodes {
			continue
		}
		v := recs[i].Victim
		if vc[v] == 0 {
			s.touched = append(s.touched, v)
		}
		vc[v]++
		valid++
	}

	// Bucket order is shard-major, first-touch-minor: count records per
	// shard, lay the shards out in order, then hand each touched victim
	// the next run of its shard's range, in first-touch order.
	if cap(s.sc) < nshards {
		s.sc = make([]int32, nshards)
	}
	sc := s.sc[:nshards]
	clear(sc)
	for _, v := range s.touched {
		sc[int(v)%nshards] += vc[v]
	}
	s.groups = s.groups[:0]
	off := int32(0)
	for sh, cnt := range sc {
		if cnt > 0 {
			s.groups = append(s.groups, ShardGroup{Shard: sh, Start: int(off), End: int(off + cnt)})
		}
		sc[sh] = off // count → the shard's next free slot
		off += cnt
	}
	for _, v := range s.touched {
		sh := int(v) % nshards
		cnt := vc[v]
		vc[v] = sc[sh] // count → running scatter offset
		sc[sh] += cnt
	}

	// Scatter into the alternate buffer, invalid records to the tail.
	if s.recsAlt == nil {
		s.recsAlt = make([]Record, SlabCap)
	}
	dst := s.recsAlt[:len(recs)]
	var dstCtx []TraceContext
	if traced {
		if s.ctxsAlt == nil {
			s.ctxsAlt = make([]TraceContext, SlabCap)
		}
		dstCtx = s.ctxsAlt[:len(recs)]
	}
	bad := int32(valid)
	for i := range recs {
		var idx int32
		if recs[i].Topo != topoID || recs[i].Victim < 0 || int(recs[i].Victim) >= numNodes {
			idx = bad
			bad++
		} else {
			idx = vc[recs[i].Victim]
			vc[recs[i].Victim]++
		}
		dst[idx] = recs[i]
		if traced {
			dstCtx[idx] = s.Ctxs[i]
		}
	}
	for _, v := range s.touched {
		vc[v] = 0
	}

	// Swap the double buffers: the views live in what was the alternate.
	s.recsBuf, s.recsAlt = s.recsAlt[:0], s.recsBuf[:SlabCap]
	s.Recs = s.recsBuf[:len(recs)]
	if traced {
		s.ctxsBuf, s.ctxsAlt = s.ctxsAlt[:0], s.ctxsBuf[:cap(s.ctxsBuf)]
		if cap(s.ctxsAlt) < SlabCap {
			s.ctxsAlt = make([]TraceContext, SlabCap)
		}
		s.Ctxs = s.ctxsBuf[:len(recs)]
	}
	return s.groups, valid
}

// SlabPool recycles slabs through a fixed-capacity freelist. Gets past
// the freelist allocate; puts past it let the slab go to the garbage
// collector — the pool never blocks either direction. Outstanding
// counts slabs handed out and not yet fully released, so a drained
// service can assert it leaked nothing.
type SlabPool struct {
	free        chan *Slab
	outstanding atomic.Int64
}

// NewSlabPool builds a pool whose freelist retains up to n idle slabs.
func NewSlabPool(n int) *SlabPool {
	if n <= 0 {
		n = 16
	}
	return &SlabPool{free: make(chan *Slab, n)}
}

// Get returns an empty slab holding one reference for the caller.
func (p *SlabPool) Get() *Slab {
	p.outstanding.Add(1)
	var s *Slab
	select {
	case s = <-p.free:
	default:
		s = &Slab{
			recsBuf: make([]Record, 0, SlabCap),
			pool:    p,
			// Partition scratch, sized so typical fan-outs never grow it:
			// 64 distinct victims and 32 shard runs cover every deployment
			// in the repo; pathological slabs still grow transparently.
			touched: make([]topology.NodeID, 0, 64),
			groups:  make([]ShardGroup, 0, 32),
		}
	}
	s.refs.Store(1)
	return s
}

func (p *SlabPool) put(s *Slab) {
	credit := s.Credit
	s.Credit = nil
	s.Reset()
	p.outstanding.Add(-1)
	select {
	case p.free <- s:
	default: // freelist full: let the GC have it
	}
	if credit != nil {
		<-credit // last: the session it wakes reuses this slab, not a new one
	}
}

// Outstanding reports slabs currently held by callers (gets minus full
// release cycles). Zero after every submitter and worker is done — the
// drain-time leak check.
func (p *SlabPool) Outstanding() int64 { return p.outstanding.Load() }
