package text

import (
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/tensor"
)

// refHasher is the oracle the Encoder is tested against: the plain
// string-concatenating feature hasher ("u:"+t, "b:"+a+" "+b through the
// standard library's FNV-1a) over a map and a sort. It shares no code with
// the Encoder beyond Tokenize and Sparse.Normalize, so a fuzzer has an
// answer for inputs no golden table lists.
type refHasher struct {
	dim int
	m   map[int32]float64
}

func (h *refHasher) add(s string, w float64) {
	f := fnv.New64a()
	f.Write([]byte(s))
	hv := f.Sum64()
	if hv&(1<<62) != 0 {
		w = -w
	}
	h.m[int32(hv&uint64(h.dim-1))] += w
}

func (h *refHasher) features(s string, w float64) {
	toks := Tokenize(s)
	for i, t := range toks {
		h.add("u:"+t, w)
		if i > 0 {
			h.add("b:"+toks[i-1]+" "+t, w)
		}
		if len(t) > 3 {
			for j := 0; j+3 <= len(t); j++ {
				h.add("c:"+t[j:j+3], w/2)
			}
		}
	}
}

func (h *refHasher) prefixed(prefix, s string, w float64) {
	toks := Tokenize(s)
	for i, t := range toks {
		h.add(prefix+t, w)
		if i > 0 {
			h.add(prefix+toks[i-1]+" "+t, w)
		}
	}
}

// Encode is the reference for Encoder.EncodeTo.
func (h *refHasher) Encode(segs ...Segment) *tensor.Sparse {
	h.m = map[int32]float64{}
	for _, seg := range segs {
		switch {
		case seg.Isolated:
			h.prefixed("iso:"+seg.Field+":", seg.Text, seg.Weight)
		case seg.Field != "":
			h.prefixed("f:"+strings.ToLower(seg.Field)+":", seg.Text, seg.Weight)
			h.features(seg.Text, seg.Weight/2)
		default:
			h.features(seg.Text, seg.Weight)
		}
	}
	s := &tensor.Sparse{}
	for idx := range h.m {
		s.Idx = append(s.Idx, idx)
	}
	sort.Slice(s.Idx, func(i, j int) bool { return s.Idx[i] < s.Idx[j] })
	for _, idx := range s.Idx {
		s.Val = append(s.Val, h.m[idx])
	}
	// Drop exact zeros (rare sign-hash cancellations).
	k := 0
	for i := range s.Idx {
		if s.Val[i] != 0 {
			s.Idx[k], s.Val[k] = s.Idx[i], s.Val[i]
			k++
		}
	}
	s.Idx, s.Val = s.Idx[:k], s.Val[:k]
	s.Normalize()
	return s
}
