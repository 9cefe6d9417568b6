package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"photon/internal/ckpt"
	"photon/internal/link"
	"photon/internal/nn"
)

// Repetitions of each direct layer call; the probes report medians.
const (
	probeReps    = 40
	decodePrompt = 8
	decodeSteps  = 48
	prefillLen   = 48
)

// probeLayers times public layer functions directly at the workload's model
// size — the q8 codec, WAL append and fsync, and incremental decode — and
// adds them to the per-layer metrics. It returns the q8 payload size of the
// model in bytes.
func probeLayers(res *result, o opts, cfg nn.Config, params int64) float64 {
	rng := rand.New(rand.NewSource(o.seed))
	vec := make([]float32, params)
	for i := range vec {
		vec[i] = float32(rng.NormFloat64() * 0.02)
	}
	layer := func(name, unit string, xs []float64, note string) {
		s := summarize(xs)
		res.add(&res.layers, name, unit, s.Median, &s, note)
	}

	q8, err := link.NewCodec("q8")
	if err != nil {
		res.err = err
		return 0
	}
	var enc, dec []float64
	var size float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		p, err := q8.Encode(vec)
		t1 := time.Now()
		if err != nil {
			res.err = err
			return 0
		}
		if _, err := q8.Decode(p); err != nil {
			res.err = err
			return 0
		}
		enc, dec = append(enc, us(t1.Sub(t0))), append(dec, us(time.Since(t1)))
		size = float64(p.WireBytes())
	}
	note := fmt.Sprintf("%d-element model vector", params)
	layer("link.q8_encode_us", "us", enc, note)
	layer("link.q8_decode_us", "us", dec, note)

	wal, _, err := ckpt.OpenWAL(filepath.Join(o.workDir, "probe-wal"), nil)
	if err != nil {
		res.err = err
		return size
	}
	defer wal.Close()
	var app, syn []float64
	for i := 0; i < probeReps/2; i++ {
		rec := &ckpt.Record{Type: ckpt.RecMemberUpdate, Round: i + 1, Member: "probe", Vec: vec}
		t0 := time.Now()
		err := wal.Append(rec)
		t1 := time.Now()
		if err == nil {
			err = wal.Sync()
		}
		if err != nil {
			res.err = err
			return size
		}
		app, syn = append(app, us(t1.Sub(t0))), append(syn, us(time.Since(t1)))
	}
	layer("ckpt.append_us", "us", app, "model-size RecMemberUpdate")
	layer("ckpt.sync_us", "us", syn, "fsync after one append")

	m := nn.NewModel(cfg, rng)
	token := func() int { return rng.Intn(cfg.VocabSize) }
	for _, batch := range []int{1, 8} {
		states := make([]*nn.DecodeState, batch)
		toks := make([][]int, batch)
		rows := make([]int, batch)
		var steps []float64
		for rep := 0; rep < 3; rep++ {
			for i := range states {
				if states[i] == nil {
					states[i] = m.NewDecodeState(decodePrompt + decodeSteps)
				}
				states[i].Reset()
				prompt := make([]int, decodePrompt)
				for j := range prompt {
					prompt[j] = token()
				}
				toks[i] = prompt
			}
			m.Decode(states, toks)
			for s := 0; s < decodeSteps-1; s++ {
				for i := range toks {
					toks[i] = []int{token()}
					rows[i] = i
				}
				t0 := time.Now()
				h := m.Decode(states, toks)
				m.DecodeLogits(h, rows)
				steps = append(steps, us(time.Since(t0)))
			}
		}
		layer(fmt.Sprintf("nn.decode_step_b%d_us", batch), "us", steps,
			fmt.Sprintf("Decode+DecodeLogits of one token for %d sequences", batch))
	}
	st := m.NewDecodeState(prefillLen)
	prompt := make([]int, prefillLen)
	var pre []float64
	for i := 0; i < probeReps; i++ {
		for j := range prompt {
			prompt[j] = token()
		}
		st.Reset()
		t0 := time.Now()
		h := m.Decode([]*nn.DecodeState{st}, [][]int{prompt})
		m.DecodeLogits(h, []int{prefillLen - 1})
		pre = append(pre, us(time.Since(t0)))
	}
	layer("nn.prefill_us", "us", pre, fmt.Sprintf("Decode of a %d-token prompt", prefillLen))
	return size
}
