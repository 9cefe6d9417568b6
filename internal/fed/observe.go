package fed

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"

	"photon/internal/cluster"
	"photon/internal/link"
	"photon/internal/metrics"
)

// The observe stream is MsgMetrics frames whose payload bytes hold one
// JSON ObserveEvent: the whole round record plus the fleet's member-health
// snapshot. No codec is involved, so any observer can attach regardless of
// the fleet's wire codec, and a new round-record field reaches observers
// without touching this file. obsMemberCap bounds the member-health
// section and obsMaxDoc the document, so a huge fleet cannot blow the
// frame and a hostile one cannot make an observer parse megabytes.
const (
	obsMemberCap = 64
	obsMaxDoc    = 1 << 20
)

// ObserveEvent is one round's worth of the observe stream: the round
// record plus the fleet's member-health snapshot, sorted by member ID.
type ObserveEvent struct {
	Record  metrics.Round
	Members []MemberHealth
}

// MemberHealth is one member's liveness snapshot as published to
// observers.
type MemberHealth struct {
	ID        string
	Health    float64
	RTTMs     float64
	Straggles int
	// Staleness is the member's version lag in async mode: how many
	// versions behind the committed global model its newest answered
	// dispatch was. Always 0 under synchronous aggregation.
	Staleness int
}

// observeMessage renders a round record and the first obsMemberCap alive
// members as an observe frame. stale, non-nil only under async
// aggregation, carries each member's version lag. JSON has no NaN or ±Inf,
// so a non-finite value (a diverged loss) travels as 0.
func observeMessage(rec metrics.Round, alive []cluster.Info, stale map[string]int) *link.Message {
	ev := ObserveEvent{Record: rec}
	for _, m := range alive[:min(len(alive), obsMemberCap)] {
		ev.Members = append(ev.Members, MemberHealth{
			ID:        m.ID,
			Health:    m.Health,
			RTTMs:     float64(m.HeartbeatRTT.Nanoseconds()) / 1e6,
			Straggles: m.Straggles,
			Staleness: stale[m.ID],
		})
	}
	sort.Slice(ev.Members, func(i, j int) bool { return ev.Members[i].ID < ev.Members[j].ID })
	doc, err := json.Marshal(ev)
	if err != nil {
		zeroNonFinite(reflect.ValueOf(&ev).Elem())
		doc, _ = json.Marshal(ev) // cannot fail: every float is now finite
	}
	return &link.Message{
		Type:    link.MsgMetrics,
		Round:   int32(rec.Round),
		Payload: link.EncodedPayload{Data: doc},
	}
}

// zeroNonFinite zeroes every NaN or ±Inf float in v, recursing into
// struct fields and slice elements.
func zeroNonFinite(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		if x := v.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
			v.SetFloat(0)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			zeroNonFinite(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			zeroNonFinite(v.Index(i))
		}
	}
}

// parseObserve inverts observeMessage, rejecting an oversized or
// malformed document and a member section beyond obsMemberCap.
func parseObserve(msg *link.Message) (ObserveEvent, error) {
	var ev ObserveEvent
	doc := msg.Payload.Data
	if len(doc) > obsMaxDoc {
		return ev, fmt.Errorf("fed: observe frame: %d-byte document exceeds %d", len(doc), obsMaxDoc)
	}
	if err := json.Unmarshal(doc, &ev); err != nil {
		return ObserveEvent{}, fmt.Errorf("fed: observe frame: %w", err)
	}
	if len(ev.Members) > obsMemberCap {
		return ObserveEvent{}, fmt.Errorf("fed: observe frame: %d members exceed cap %d", len(ev.Members), obsMemberCap)
	}
	return ev, nil
}

// Observe attaches to an aggregator as a read-only event subscriber and
// calls fn for every round record the aggregator publishes, until the
// aggregator shuts down (returns nil), the connection drops, or ctx is
// cancelled. The subscription is codec-free: the observer answers the
// aggregator's codec announcement with MsgObserve instead of a join, so
// it works against any fleet configuration and never occupies a
// membership slot. It is the client half of the photon-top dashboard.
func Observe(ctx context.Context, conn *link.Conn, fn func(ObserveEvent)) error {
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()
	msg, err := conn.RecvTimeout(handshakeTimeout)
	if err != nil {
		return fmt.Errorf("fed: observe handshake: %w", err)
	}
	if msg.Type != link.MsgCodecAnnounce {
		return fmt.Errorf("fed: observe: aggregator sent message type %d before its codec announcement", msg.Type)
	}
	if err := conn.Send(&link.Message{Type: link.MsgObserve, ClientID: "observer"}); err != nil {
		return fmt.Errorf("fed: observe subscribe: %w", err)
	}
	for {
		msg, err := conn.Recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("fed: observe: %w: %w", ErrSessionLost, err)
		}
		switch msg.Type {
		case link.MsgMetrics:
			ev, err := parseObserve(msg)
			if err != nil {
				return err
			}
			fn(ev)
		case link.MsgShutdown:
			return nil
		default:
			// Heartbeats or future frame types: observers ignore them.
		}
	}
}
