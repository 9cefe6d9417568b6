package link

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// randVec draws a random-length vector, deliberately covering length 0 and
// lengths that are not multiples of the q8 block size.
func randVec(rng *rand.Rand) []float32 {
	lengths := []int{0, 1, 2, 7, 255, 256, 257, 1000, 4096 + 3}
	n := lengths[rng.Intn(len(lengths))]
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// Property: the lossless codecs round-trip any vector exactly.
func TestLosslessCodecRoundTripProperty(t *testing.T) {
	for _, name := range []string{"dense", "flate"} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			v := randVec(rng)
			codec, err := NewCodec(name)
			if err != nil {
				return false
			}
			enc, err := EncodeVector(codec, v)
			if err != nil {
				return false
			}
			got, err := codec.Decode(enc)
			if err != nil || len(got) != len(v) {
				return false
			}
			for i := range v {
				if got[i] != v[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// Property: q8 round-trips the element count exactly for any length
// (including non-multiples of the block size) and every coordinate within
// half a quantization step of its block's absmax scale.
func TestQ8RoundTripProperty(t *testing.T) {
	f := func(seed int64, bsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randVec(rng)
		bs := 1 + int(bsRaw)%300
		codec := &Q8Codec{BlockSize: bs}
		enc, err := EncodeVector(codec, v)
		if err != nil {
			return false
		}
		got, err := codec.Decode(enc)
		if err != nil || len(got) != len(v) {
			return false
		}
		for b := 0; b*bs < len(v); b++ {
			lo, hi := b*bs, (b+1)*bs
			if hi > len(v) {
				hi = len(v)
			}
			var maxAbs float64
			for _, x := range v[lo:hi] {
				if a := math.Abs(float64(x)); a > maxAbs {
					maxAbs = a
				}
			}
			step := maxAbs / 127
			for i := lo; i < hi; i++ {
				if math.Abs(float64(got[i]-v[i])) > step/2+1e-7 {
					return false
				}
			}
		}
		// ~1 byte per element plus one scale per block.
		if len(v) > 0 {
			nBlocks := (len(v) + bs - 1) / bs
			if enc.WireBytes() != 4+4*nBlocks+len(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: topk round-trips the element count, transmits at most
// ceil(keep*n) pairs, and every transmitted coordinate is exact.
func TestTopKRoundTripProperty(t *testing.T) {
	f := func(seed int64, keepRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randVec(rng)
		keep := 0.05 + 0.9*float64(keepRaw)/255
		codec := &TopKCodec{Keep: keep}
		enc, err := EncodeVector(codec, v)
		if err != nil {
			return false
		}
		got, err := codec.Decode(enc)
		if err != nil || len(got) != len(v) {
			return false
		}
		if len(v) == 0 {
			return enc.IsZero()
		}
		k := int(math.Ceil(keep * float64(len(v))))
		if enc.WireBytes() > 8*k {
			return false
		}
		// A fresh codec has a zero residual, so every transmitted value
		// equals its input coordinate and the rest decode to zero.
		for i := range v {
			if got[i] != 0 && got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKErrorFeedback: coordinates dropped in round r are carried into
// round r+1 via the residual, so a constant input is fully delivered over
// 1/keep rounds — nothing is permanently lost, only delayed.
func TestTopKCodecErrorFeedback(t *testing.T) {
	const n = 100
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(i + 1) // distinct magnitudes, all nonzero
	}
	codec := &TopKCodec{Keep: 0.25}
	delivered := make([]float32, n)
	zero := make([]float32, n)
	// Round 1 sends v; later rounds send zero updates, so everything that
	// arrives is residual drainage.
	for round := 0; round < 5; round++ {
		in := zero
		if round == 0 {
			in = v
		}
		enc, err := EncodeVector(codec, in)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec {
			delivered[i] += dec[i]
		}
	}
	for i := range v {
		if math.Abs(float64(delivered[i]-v[i])) > 1e-5 {
			t.Fatalf("coordinate %d: delivered %v of %v after residual drain", i, delivered[i], v[i])
		}
	}
}

func TestTopKSizeChangeRejected(t *testing.T) {
	codec := &TopKCodec{Keep: 0.5}
	if _, err := codec.Encode(make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Encode(make([]float32, 9)); err == nil {
		t.Fatal("size change accepted despite pending residual")
	}
}

func TestParameterizedCodecNames(t *testing.T) {
	c, err := NewCodec("topk:0.05")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.(*TopKCodec).Keep; got != 0.05 {
		t.Fatalf("keep = %v", got)
	}
	c, err = NewCodec("q8:128")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.(*Q8Codec).BlockSize; got != 128 {
		t.Fatalf("block size = %v", got)
	}
	for _, bad := range []string{"topk:0", "topk:1.5", "topk:zero", "q8:0", "dense:1", "nope"} {
		if _, err := NewCodec(bad); err == nil {
			t.Fatalf("NewCodec(%q) accepted", bad)
		}
	}
	// Parameterized names resolve to their base codec's wire ID.
	if CodecWireID("topk:0.05") != CodecTopK || CodecWireID("q8:128") != CodecQ8 {
		t.Fatal("parameterized names must share the base wire ID")
	}
}

func TestRegisterCodecCustom(t *testing.T) {
	RegisterCodec("test-negate", func() Codec { return negateCodec{} })
	id := CodecWireID("test-negate")
	if id < customIDBase {
		t.Fatalf("custom codec id %d below the custom range", id)
	}
	if CodecNameByID(id) != "test-negate" {
		t.Fatal("id does not resolve back to the name")
	}
	c, err := NewCodec("test-negate")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeVector(c, []float32{1, -2})
	if err != nil {
		t.Fatal(err)
	}
	if enc.CodecID != id {
		t.Fatalf("EncodeVector did not stamp the registered id: %d vs %d", enc.CodecID, id)
	}
	dec, err := c.Decode(enc)
	if err != nil || dec[0] != 1 || dec[1] != -2 {
		t.Fatalf("custom codec round trip: %v (%v)", dec, err)
	}
}

// negateCodec flips signs on the wire — a minimal custom codec that leaves
// CodecID stamping to EncodeVector.
type negateCodec struct{}

func (negateCodec) Name() string { return "test-negate" }
func (negateCodec) Encode(v []float32) (EncodedPayload, error) {
	neg := make([]float32, len(v))
	for i, x := range v {
		neg[i] = -x
	}
	return EncodedPayload{Elems: len(v), Data: payloadBytes(neg)}, nil
}
func (negateCodec) Decode(p EncodedPayload) ([]float32, error) {
	out := floatsFromBytes(p.Data)
	for i := range out {
		out[i] = -out[i]
	}
	return out, nil
}

func TestDecodePayloadMismatchFailsFast(t *testing.T) {
	q8, _ := NewCodec("q8")
	topk, _ := NewCodec("topk")
	enc, err := EncodeVector(q8, []float32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(topk, enc); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("q8 frame accepted by a topk session: %v", err)
	}
	// The lossless built-ins are always accepted (model-broadcast fallback
	// and legacy frames).
	dense := Dense([]float32{4, 5})
	if vec, err := DecodePayload(topk, dense); err != nil || len(vec) != 2 {
		t.Fatalf("dense fallback rejected: %v", err)
	}
}

// TestCorruptedPayloadRejected flips/truncates codec payloads and expects
// every codec to reject them with an error instead of panicking or
// returning garbage lengths.
func TestCorruptedPayloadRejected(t *testing.T) {
	v := make([]float32, 300)
	rng := rand.New(rand.NewSource(5))
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	for _, name := range []string{"dense", "flate", "q8", "topk"} {
		codec, err := NewCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := EncodeVector(codec, v)
		if err != nil {
			t.Fatal(err)
		}
		// Truncated data.
		trunc := enc
		trunc.Data = enc.Data[:len(enc.Data)-3]
		if dec, err := codec.Decode(trunc); err == nil && len(dec) == len(v) {
			t.Errorf("%s: truncated payload decoded to full length", name)
		}
		// Element-count lie.
		lie := enc
		lie.Elems = enc.Elems + 7
		if dec, err := codec.Decode(lie); err == nil && len(dec) == len(v) {
			t.Errorf("%s: elems mismatch not detected", name)
		}
	}

	// topk with an out-of-range index must be rejected.
	topk, _ := NewCodec("topk")
	enc, err := EncodeVector(topk, v)
	if err != nil {
		t.Fatal(err)
	}
	bad := enc
	bad.Data = append([]byte(nil), enc.Data...)
	binary.LittleEndian.PutUint32(bad.Data[0:], uint32(len(v)+10))
	if _, err := topk.Decode(bad); err == nil {
		t.Error("topk: out-of-range index accepted")
	}

	// An unknown codec ID on a frame must fail Floats() with a clear error.
	unknown := EncodedPayload{CodecID: 250, Elems: 3, Data: []byte{1, 2, 3}}
	if _, err := unknown.Floats(); err == nil {
		t.Error("unknown codec id decoded")
	}
}

// TestCorruptedFrameRejected covers frame-level rejection for the new
// payload section: a flipped codec-ID byte fails the CRC, and a
// CRC-consistent frame whose payload bytes disagree with its codec is
// rejected at decode time.
func TestCorruptedFrameRejected(t *testing.T) {
	q8, _ := NewCodec("q8")
	enc, err := EncodeVector(q8, make([]float32, 300))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, &Message{Type: MsgUpdate, Payload: enc}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Any single-byte flip in the body (including the codec ID) fails CRC.
	flip := append([]byte(nil), raw...)
	flip[len(flip)-enc.WireBytes()-9] ^= 0xFF // the codec-ID byte
	if _, err := Decode(bytes.NewReader(flip)); err == nil {
		t.Fatal("flipped codec id accepted")
	}

	// A "valid" frame whose payload length disagrees with the codec's own
	// layout is caught by the codec, not trusted.
	short := enc
	short.Data = enc.Data[:len(enc.Data)-5]
	var buf2 bytes.Buffer
	if err := Encode(&buf2, &Message{Type: MsgUpdate, Payload: short}); err != nil {
		t.Fatal(err)
	}
	m, err := Decode(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Payload.Floats(); err == nil {
		t.Fatal("inconsistent q8 payload decoded")
	}
}

// encodeLegacyFrame emits a pre-codec wire frame (no codec-ID byte,
// optionally flate-compressed dense floats) exactly as the previous
// protocol release did.
func encodeLegacyFrame(t *testing.T, v []float32, compress bool) []byte {
	t.Helper()
	payload := payloadBytes(v)
	flags := byte(0)
	if compress {
		var fbuf bytes.Buffer
		fw, _ := flate.NewWriter(&fbuf, flate.BestSpeed)
		fw.Write(payload)
		fw.Close()
		if fbuf.Len() < len(payload) {
			payload = append([]byte(nil), fbuf.Bytes()...)
			flags = flagFlate
		}
	}
	var body bytes.Buffer
	body.WriteByte(byte(MsgModel))
	body.WriteByte(flags)
	writeU32(&body, 7) // round
	writeU32(&body, 0) // id len
	writeU32(&body, 0) // meta count
	writeU32(&body, uint32(len(v)))
	writeU32(&body, uint32(len(payload)))
	body.Write(payload)
	var out bytes.Buffer
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(body.Len()))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(body.Bytes()))
	out.Write(hdr[:])
	out.Write(body.Bytes())
	return out.Bytes()
}

// TestLegacyFrameStillDecodable: frames from the pre-codec wire format
// (dense and flate flavors) decode into the matching built-in codec's
// payload for one release of backward compatibility.
func TestLegacyFrameStillDecodable(t *testing.T) {
	v := []float32{1, 0, 0, 0, -2.5, 0, 0, 0, 3}
	for _, compress := range []bool{false, true} {
		m, err := Decode(bytes.NewReader(encodeLegacyFrame(t, v, compress)))
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if m.Type != MsgModel || m.Round != 7 {
			t.Fatalf("legacy header mangled: %+v", m)
		}
		got, err := m.Payload.Floats()
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if len(got) != len(v) {
			t.Fatalf("legacy payload length %d", len(got))
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("compress=%v: coordinate %d mangled", compress, i)
			}
		}
	}
}

// Property: quickselect agrees with a full sort for the k-th largest.
func TestKthLargestMatchesSort(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		v := make([]float32, n)
		for i := range v {
			switch rng.Intn(3) {
			case 0:
				v[i] = float32(rng.NormFloat64())
			case 1:
				v[i] = float32(rng.Intn(4)) // heavy ties
			default:
				v[i] = 1
			}
		}
		k := 1 + int(kRaw)%n
		want := append([]float32(nil), v...)
		sort.Slice(want, func(a, b int) bool { return want[a] > want[b] })
		return kthLargest(v, k) == want[k-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKPrefersLargerOverEarlierTies: a coordinate strictly above the
// threshold must always be transmitted, even when enough threshold ties
// precede it to fill the density budget.
func TestTopKPrefersLargerOverEarlierTies(t *testing.T) {
	codec := &TopKCodec{Keep: 0.5}
	enc, err := EncodeVector(codec, []float32{1, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := codec.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec[3] != 2 {
		t.Fatalf("largest coordinate dropped in favor of earlier ties: %v", dec)
	}
	if enc.WireBytes() != 8*2 {
		t.Fatalf("density budget not exact: %d bytes", enc.WireBytes())
	}
}

// TestDecodeRejectsOversizedLengthPrefix: a frame whose payload length
// prefix exceeds the bytes actually present must be rejected before any
// allocation, not after a gigabyte make().
func TestDecodeRejectsOversizedLengthPrefix(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleMessage()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The payload byte-count field sits 4 bytes before the payload data.
	payloadLen := sampleMessage().Payload.WireBytes()
	off := len(raw) - payloadLen - 4
	binary.LittleEndian.PutUint32(raw[off:], 1<<31)
	// Refresh the CRC so only the length lie is on trial.
	binary.LittleEndian.PutUint32(raw[8:], crc32.ChecksumIEEE(raw[12:]))
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("oversized payload length prefix accepted")
	}
}
