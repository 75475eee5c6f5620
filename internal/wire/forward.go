package wire

// Cluster extension: the frame types that let ddpmd instances talk to
// each other over the same framing exporters use.
//
// TypeForwarded is a sealed record batch relayed by a non-owning
// instance to the consistent-hash owner of the records' victims. It is
// a TypeSealed with an extra leading origin-instance id, so the owner
// can account forwarded ingest per origin and fleet counters still
// balance (records forwarded out by A == records forwarded in from A
// at their owners). Forwarding sessions are negotiated with
// HelloFlagForward; a server that does not echo the flag (cluster mode
// off) refuses the session and the forwarder backs off.
//
// TypeTracedForwarded keeps each record's trace context across the
// hop: the relay forwards the trace id and the exporter's original send
// timestamp unchanged and adds the route timestamp taken when it
// decided to forward, so the owner stitches a `forward` span (route →
// queue → wire → remote ingest) into the record's timeline and still
// observes true send-to-block latency. A forwarding client sets
// HelloFlagForward|HelloFlagTrace and sends the traced type only when
// the server echoed BOTH; a server that echoes forwarding but not
// tracing gets plain TypeForwarded frames — records are delivered
// unchanged, contexts are shed (the clean downgrade the trace
// extension has always promised).
//
// TypeGossip (blocklist deltas, liveness, and victim state: replicas,
// tombstones and the handoffs a membership change owes a new owner)
// carries an opaque request/response payload whose layout belongs to
// internal/cluster; the wire layer only frames and CRC-seals it.

import "fmt"

const (
	// FwdCtxSize is the per-record forward-hop context: trace id(8) +
	// exporter send time(8) + origin route time(8). It is wider than
	// the exporter-facing TraceCtxSize because the hop adds the route
	// timestamp the owner needs for the forward span.
	FwdCtxSize = 24

	// TracedFwdRecordSize is one record plus its forward-hop context.
	TracedFwdRecordSize = RecordSize + FwdCtxSize

	// HelloFlagForward, set in an extended hello's flags word, declares
	// the session will carry TypeForwarded frames from a peer instance.
	// The server echoes it only when running in cluster mode.
	HelloFlagForward uint32 = 1 << 1

	// MaxGossipBody is the largest gossip body that fits one frame in
	// front of the CRC tail.
	MaxGossipBody = MaxFramePayload - crcSize
)

// AppendGossip appends one TypeGossip frame sealing body with a CRC
// tail. It panics when body does not fit one frame: gossip senders
// budget their payloads instead of splitting.
func AppendGossip(b, body []byte) []byte {
	if len(body) > MaxGossipBody {
		panic(fmt.Sprintf("wire: %d-byte body exceeds the %d-byte limit of a gossip frame", len(body), MaxGossipBody))
	}
	b = appendHeader(b, TypeGossip, len(body)+crcSize)
	start := len(b)
	return appendSeal(append(b, body...), start)
}

// ParseGossip verifies a TypeGossip payload's CRC tail and returns the
// body. The body aliases payload — copy it before the next ReadFrame.
func ParseGossip(payload []byte) ([]byte, error) { return openSeal(payload) }
