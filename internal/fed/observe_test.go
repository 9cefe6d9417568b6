package fed

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"photon/internal/cluster"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/testutil"
)

// wireTrip sends msg through the frame codec, as an observer receives it.
func wireTrip(t testing.TB, msg *link.Message) *link.Message {
	t.Helper()
	var buf bytes.Buffer
	if err := link.Encode(&buf, msg); err != nil {
		t.Fatal(err)
	}
	back, err := link.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestObserveMessageRoundTrip fills every round-record field with a
// distinct value and requires the observe stream to deliver the record
// unchanged, so a field added to metrics.Round reaches observers with no
// edit here.
func TestObserveMessageRoundTrip(t *testing.T) {
	var rec metrics.Round
	testutil.FillDistinct(&rec)
	alive := []cluster.Info{
		{ID: "b", Health: 0.5, HeartbeatRTT: 7 * time.Millisecond, Straggles: 3},
		{ID: "a", Health: 1, HeartbeatRTT: 2 * time.Millisecond, Straggles: 0},
	}
	ev, err := parseObserve(wireTrip(t, observeMessage(rec, alive, map[string]int{"b": 2})))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev.Record, rec) {
		t.Fatalf("record round-trip mismatch:\n got %+v\nwant %+v", ev.Record, rec)
	}
	want := []MemberHealth{
		{ID: "a", Health: 1, RTTMs: 2},
		{ID: "b", Health: 0.5, RTTMs: 7, Straggles: 3, Staleness: 2},
	}
	if !reflect.DeepEqual(ev.Members, want) {
		t.Fatalf("members = %+v, want %+v", ev.Members, want)
	}
}

func TestObserveMessageCapsMembers(t *testing.T) {
	alive := make([]cluster.Info, obsMemberCap+10)
	for i := range alive {
		alive[i] = cluster.Info{ID: fmt.Sprintf("m%03d", i), Health: 1}
	}
	ev, err := parseObserve(wireTrip(t, observeMessage(metrics.Round{Round: 1}, alive, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Members) != obsMemberCap {
		t.Fatalf("got %d members, want cap %d", len(ev.Members), obsMemberCap)
	}
}

// A diverged run's NaN loss has no JSON form: it travels as 0 and the rest
// of the record survives.
func TestObserveMessageNonFinite(t *testing.T) {
	rec := metrics.Round{Round: 3, TrainLoss: math.NaN(), ValPPL: math.Inf(1), Clients: 2}
	rec.Phases.TrainMs = math.Inf(-1)
	alive := []cluster.Info{{ID: "a", Health: math.NaN(), Straggles: 1}}
	ev, err := parseObserve(observeMessage(rec, alive, nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := (metrics.Round{Round: 3, Clients: 2}); ev.Record != want {
		t.Fatalf("record = %+v, want %+v", ev.Record, want)
	}
	if want := []MemberHealth{{ID: "a", Straggles: 1}}; !reflect.DeepEqual(ev.Members, want) {
		t.Fatalf("members = %+v, want %+v", ev.Members, want)
	}
}

func TestParseObserveRejects(t *testing.T) {
	over := ObserveEvent{Members: make([]MemberHealth, obsMemberCap+1)}
	overDoc, err := json.Marshal(over)
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string][]byte{
		"empty":     nil,
		"truncated": []byte(`{"Record":{"Round":1`),
		"wrongType": []byte(`{"Record":{"Round":"one"}}`),
		"trailing":  []byte(`{} {}`),
		"overCap":   overDoc,
		"oversized": []byte(`{"Record":{"SlowestID":"` + strings.Repeat("x", obsMaxDoc) + `"}}`),
	} {
		msg := &link.Message{Type: link.MsgMetrics, Payload: link.EncodedPayload{Data: doc}}
		if _, err := parseObserve(msg); err == nil {
			t.Errorf("%s document accepted", name)
		}
	}
}

// FuzzObserveFrame feeds arbitrary bytes through the frame decoder and the
// observe decoder. Neither may panic, and a document the observe decoder
// accepts must be well-formed JSON within the member cap. Seed frames live
// in testdata/fuzz/FuzzObserveFrame.
func FuzzObserveFrame(f *testing.F) {
	var rec metrics.Round
	testutil.FillDistinct(&rec)
	var frame bytes.Buffer
	alive := []cluster.Info{{ID: "a", Health: 1, HeartbeatRTT: time.Millisecond}}
	if err := link.Encode(&frame, observeMessage(rec, alive, nil)); err != nil {
		f.Fatal(err)
	}
	f.Add(frame.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		// A declared body longer than the input fails Decode only after
		// allocating it (up to 4 GiB); skip such inputs to keep the fuzzer's
		// memory bounded. Nothing past the header would be parsed anyway.
		if len(raw) >= 8 && int(binary.LittleEndian.Uint32(raw[4:8])) > len(raw) {
			return
		}
		msg, err := link.Decode(bytes.NewReader(raw))
		if err != nil {
			return
		}
		ev, err := parseObserve(msg)
		if err != nil {
			return
		}
		if !json.Valid(msg.Payload.Data) {
			t.Fatalf("malformed document accepted: %q", msg.Payload.Data)
		}
		if len(ev.Members) > obsMemberCap {
			t.Fatalf("%d members accepted, cap %d", len(ev.Members), obsMemberCap)
		}
	})
}
