package wire

// Trace-context extension: an optional 16-byte context (64-bit trace id
// + exporter send timestamp) riding beside each record, so one specific
// record can be followed from the exporter's Send call through the
// daemon's identify → detect → block pipeline and into the flight
// recorder. The extension is carried in its own frame types
// (TypeTracedRecords / TypeTracedSealed) so legacy streams parse
// unchanged; session clients negotiate it with a flag in the hello and
// fall back to plain frames when the server does not echo it.

const (
	// TraceCtxSize is the encoded trace context: id(8) + sent(8).
	TraceCtxSize = 16

	// TracedRecordSize is one record plus its trace context.
	TracedRecordSize = RecordSize + TraceCtxSize

	// HelloFlagTrace, set in an extended hello's flags word, asks the
	// server to accept TypeTracedSealed frames on this session. The
	// server echoes the flag in an extended ack when it will.
	HelloFlagTrace uint32 = 1 << 0
)

// TraceContext is the per-record tracing extension. A zero ID means
// "untraced": legacy frames decode to records with a zero context, and
// the pipeline skips span capture for them.
//
// Routed and Origin are the cluster forward-hop lane: a non-owning
// instance stamps Routed when it decides to forward the record and
// Origin names itself, so the owner can stitch a forward span into the
// timeline. They ride only TypeTracedForwarded frames (FwdCtxSize) —
// the exporter-facing 16-byte encoding of TypeTracedRecords and
// TypeTracedSealed is unchanged and never carries them.
type TraceContext struct {
	ID     uint64 // trace id, unique per exporter stream
	Sent   int64  // exporter send time, unix nanoseconds (0 = unknown)
	Routed int64  // forward-hop route time at the origin instance (0 = not forwarded)
	Origin uint64 // forwarding instance's member id (0 = not forwarded)
}

// TracedRecord pairs a Record with its trace context.
type TracedRecord struct {
	Record
	Ctx TraceContext
}

// SplitMix64 spreads a counter into a well-distributed 64-bit id — the
// trace-id generator shared by the exporter client and the flight
// recorder's synthetic stream events.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
