package nn

import (
	"fmt"

	"photon/internal/tensor"
)

// DecodeState is one sequence's per-layer KV cache for incremental decoding.
// Each layer stores keys and values as Heads contiguous [maxSeq, headDim]
// panels so the decode kernel streams unit-stride rows; Decode appends one
// panel row per new token per layer and attends over the cached prefix,
// turning the O(T²)-forwards generation loop into O(T) incremental steps.
//
// A DecodeState belongs to a single Model (the cache layout is derived from
// its configuration) and is not safe for concurrent use: only one Decoder
// may advance it at a time. The buffers are allocated once at construction;
// steady-state decoding never grows them.
type DecodeState struct {
	k, v    [][]float32 // per layer: Heads panels of maxSeq·headDim
	n       int         // cached positions
	maxSeq  int
	headDim int
}

// NewDecodeState allocates a KV cache able to hold maxSeq positions per
// layer for decoding with this model.
//
//photon:allocok
func (m *Model) NewDecodeState(maxSeq int) *DecodeState {
	if maxSeq <= 0 {
		panic(fmt.Sprintf("nn: NewDecodeState: maxSeq must be positive, got %d", maxSeq))
	}
	s := &DecodeState{
		k:       make([][]float32, len(m.Blocks)),
		v:       make([][]float32, len(m.Blocks)),
		maxSeq:  maxSeq,
		headDim: m.Cfg.HeadDim(),
	}
	per := m.Cfg.Heads * maxSeq * s.headDim
	for i := range s.k {
		s.k[i] = make([]float32, per)
		s.v[i] = make([]float32, per)
	}
	return s
}

// Len returns the number of cached positions.
//
//photon:hotpath
func (s *DecodeState) Len() int { return s.n }

// Cap returns the cache capacity in positions.
//
//photon:hotpath
func (s *DecodeState) Cap() int { return s.maxSeq }

// Reset empties the cache so the state can be reused for a new sequence
// without reallocating — continuous-batching servers recycle retired slots
// this way.
//
//photon:hotpath
func (s *DecodeState) Reset() { s.n = 0 }

// Truncate drops cached positions beyond n (n must not exceed Len). The
// retained prefix stays valid: decoding continues from position n.
//
//photon:hotpath
func (s *DecodeState) Truncate(n int) {
	if n < 0 || n > s.n {
		panic(fmt.Sprintf("nn: Truncate(%d) outside cached length %d", n, s.n))
	}
	s.n = n
}

// Decoder runs the KV-cached incremental forward. It owns every piece of
// scratch a decode step needs — the decode workspace, the flattened-token,
// cached-length and new-row-count buffers, and the ragged attention work
// items — and only reads the model's parameters. Each Decoder is for one
// goroutine, but several Decoders may decode disjoint sets of DecodeStates
// on one Model concurrently: this is how a serving engine shards a decode
// step across cores. Concurrent decoding must not overlap training or any
// other write to the model's parameters.
type Decoder struct {
	m *Model
	// ws is under the size-class retention policy: decode scratch shapes
	// grow with the cache length, and power-of-two buckets keep the steady
	// state allocation-free where exact-size buckets would miss every step.
	ws     *Workspace
	flat   []int // flattened new tokens across the decode batch
	lens   []int // per-sequence cached length before the step
	counts []int // per-sequence new-token count
	items  []tensor.DecodeItem
}

// NewDecoder returns a decoder over m with its own scratch.
//
//photon:allocok
func (m *Model) NewDecoder() *Decoder {
	ws := NewWorkspace()
	ws.SetSizeClasses(true)
	return &Decoder{m: m, ws: ws}
}

// Decode runs one incremental forward over a batch of sequences: tokens[i]
// are the new tokens for states[i] — one token for a sequence in steady-state
// decode, a whole prompt (or prompt chunk) for a sequence being prefilled.
// Mixed batches are the point: a continuous-batching server prefills newly
// admitted sequences in the same forward that decodes the running ones.
//
// Each layer appends tokens[i]'s K/V rows to states[i] and attends over the
// cached prefix plus the new rows (causally within the new rows). On return
// every state's Len has advanced by len(tokens[i]).
//
// The result holds the final hidden states for all new rows — the rows of
// sequence i start at offset Σ_{j<i} len(tokens[j]) — and lives in the
// decoder's workspace: it is valid until the next Decode call on this
// decoder. Use Logits to turn selected rows into next-token logits.
//
//photon:hotpath
func (d *Decoder) Decode(states []*DecodeState, tokens [][]int) *tensor.Matrix {
	if len(states) == 0 || len(states) != len(tokens) {
		panic(fmt.Sprintf("nn: Decode: %d states, %d token slices", len(states), len(tokens)))
	}
	total := 0
	for i, tk := range tokens {
		if len(tk) == 0 {
			panic("nn: Decode: empty token slice")
		}
		if states[i].n+len(tk) > states[i].maxSeq {
			panic(fmt.Sprintf("nn: Decode: sequence %d overflows cache (%d+%d > %d)",
				i, states[i].n, len(tk), states[i].maxSeq))
		}
		total += len(tk)
	}
	m := d.m
	d.ws.Reset()

	d.flat = growInt(d.flat, total)
	d.lens = growInt(d.lens, len(states))
	d.counts = growInt(d.counts, len(states))
	off := 0
	for i, tk := range tokens {
		copy(d.flat[off:], tk)
		off += len(tk)
		d.lens[i] = states[i].n
		d.counts[i] = len(tk)
	}

	x := m.Embed.apply(d.ws, d.flat)
	for li, b := range m.Blocks {
		x = b.decode(d, x, li, states)
	}
	h := m.LNF.apply(d.ws, x, nil, nil)
	for i, tk := range tokens {
		states[i].n += len(tk)
	}
	return h
}

// Logits computes next-token logits for the selected rows of a hidden
// matrix returned by Decode. Generation needs only each sequence's last row;
// continuation scoring needs every continuation row — gathering first keeps
// the [rows, Vocab] product as small as the caller's actual need. The result
// lives in the decoder's workspace and is valid until its next Decode call.
//
//photon:hotpath
func (d *Decoder) Logits(h *tensor.Matrix, rows []int) *tensor.Matrix {
	m := d.m
	g := d.ws.Take(len(rows), m.Cfg.Dim)
	for i, r := range rows {
		copy(g.Row(i), h.Row(r))
	}
	logits := d.ws.Take(len(rows), m.Cfg.VocabSize)
	tensor.MatMulTransB(logits, g, &m.embMat)
	return logits
}

// Decode is Decoder.Decode on the model-owned decoder; see there.
//
//photon:hotpath
func (m *Model) Decode(states []*DecodeState, tokens [][]int) *tensor.Matrix {
	return m.dec.Decode(states, tokens)
}

// DecodeLogits is Decoder.Logits on the model-owned decoder; h must come
// from Model.Decode.
//
//photon:hotpath
func (m *Model) DecodeLogits(h *tensor.Matrix, rows []int) *tensor.Matrix {
	return m.dec.Logits(h, rows)
}

// decode is Block.Forward for the incremental path: same residual
// structure, attention replaced by the KV-cached variant, and no backward
// caches written.
//
//photon:hotpath
func (b *Block) decode(d *Decoder, x *tensor.Matrix, layer int, states []*DecodeState) *tensor.Matrix {
	ws := d.ws
	h := b.Attn.decode(d, b.LN1.apply(ws, x, nil, nil), layer, states)
	tensor.Add(h.Data, x.Data) // residual 1
	mo := b.FC2.apply(ws, geluApply(ws, b.FC1.apply(ws, b.LN2.apply(ws, h, nil, nil))))
	tensor.Add(mo.Data, h.Data) // residual 2
	return mo
}
