// Package stream turns the batch pipeline into a continuously-fresh
// one: a resumable live-feed abstraction (Source/Session), a
// deterministic fault injector that breaks it the way real feeds break
// (disconnects, stalls, corrupt frames, duplicate and reordered
// deliveries), a rolling time window over the columnar tuple store,
// and an Ingestor that survives all of it — reconnecting with jittered
// exponential backoff, resuming from the last applied sequence number,
// and publishing periodic generations for the serving layer to
// hot-swap. Every generation runs the batch method (core.ClassifyContext)
// over the window: the same tuples a batch load of the window's updates
// would hold, large communities included, and the same options.
//
// The robustness contract the Ingestor provides: no update in the
// feed is ever lost or double-applied (exactly-once application up to
// the resume protocol), a dead feed degrades the service to
// stale-but-serving rather than crashing it, and a canceled context
// tears everything down with no goroutine left behind.
package stream

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bgpintent/internal/bgp"
)

// Update is one timestamped route observation delivered by a live
// feed. Sequence numbers are assigned by the source, start at 1, and
// are strictly increasing in feed order; they are the resume tokens of
// the reconnect protocol.
type Update struct {
	// Seq is the source-assigned sequence number (1-based, dense).
	Seq uint64
	// Time is the observation timestamp in feed time; the rolling
	// window buckets and evicts by it.
	Time time.Time
	// VP is the vantage-point ASN that observed the route.
	VP uint32
	// Path is the AS path, nearest-first, VP included.
	Path []uint32
	// Comms is the attached community set.
	Comms bgp.Communities
	// LargeComms carries large communities (RFC 8092). The window keys
	// them into its tuples and every generation classifies them, as a
	// batch load does.
	LargeComms bgp.LargeCommunities
}

// Source is a resumable live feed of BGP updates. Connect opens a new
// session delivering every update with Seq > after, in sequence order
// (a fault-injecting wrapper may violate the ordering; the Ingestor
// copes). Implementations must support reconnecting any number of
// times, including concurrently with an unclosed prior session.
type Source interface {
	Connect(ctx context.Context, after uint64) (Session, error)
}

// Session is one live connection to a Source. Recv blocks until the
// next update arrives, the feed ends (io.EOF), the session dies
// (ErrDisconnected), a frame fails to decode (ErrCorruptFrame), or ctx
// is done (ctx.Err()). Sessions are not safe for concurrent Recv.
type Session interface {
	Recv(ctx context.Context) (Update, error)
	Close() error
}

// ErrDisconnected is returned by Recv when the transport drops; the
// consumer should reconnect and resume.
var ErrDisconnected = errors.New("stream: disconnected")

// ErrCorruptFrame is returned by Recv when a frame fails validation.
// The update it carried is lost in transit and the stream position can
// no longer be trusted, so the consumer must reconnect and resume from
// its last applied sequence number to recover it.
var ErrCorruptFrame = errors.New("stream: corrupt frame")

// FeedState is the Ingestor's connection state, exposed for health
// reporting.
type FeedState int32

const (
	// StateConnecting: no session yet (initial connect or reconnect in
	// progress, including backoff waits).
	StateConnecting FeedState = iota
	// StateLive: a session is established and reads are succeeding.
	StateLive
	// StateDown: the retry budget is exhausted; the Ingestor has given
	// up and the service keeps serving its last good snapshot.
	StateDown
	// StateEnded: the feed reported io.EOF (finite feeds only).
	StateEnded
)

// String names the state for health endpoints and logs.
func (s FeedState) String() string {
	switch s {
	case StateConnecting:
		return "connecting"
	case StateLive:
		return "live"
	case StateDown:
		return "down"
	case StateEnded:
		return "ended"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}
