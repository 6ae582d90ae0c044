package core

// Fixed-point accumulation.
//
// The per-cell congestion sum F(I) = Σ_i P_i(I) is accumulated in
// 64-bit fixed point rather than float64: each net's per-cell
// contribution is quantized exactly once (at the sweep's fold step)
// and the quantized integers are summed. Integer addition is exact and
// order-independent, which buys two properties float accumulation
// cannot offer together:
//
//   - any order or partition of the nets — including the delta
//     engine's add/remove of individual nets — produces the same
//     accumulated bits, with no reduction-tree bookkeeping;
//   - subtracting a net's stored contribution perfectly inverts having
//     added it, so the incremental evaluator (delta.go) is bit-identical
//     to a from-scratch evaluation regardless of the move history.
//
// Precision: probShift = 46 keeps the quantization error per
// contribution at 2^-47 ≈ 7.1e-15 — three orders of magnitude inside
// the oracle's exact-path budget (1e-9) even after summing thousands
// of nets. Headroom: contributions are clamped to [0, 1], so a cell
// overflows int64 only beyond 2^(63-46) = 131072 contributing nets,
// far past any floorplanning instance this code base targets.
const (
	probShift = 46
	// probOne is the fixed-point representation of probability 1.
	probOne = int64(1) << probShift
)

// probInv converts an accumulated fixed-point sum back to float64.
// It is an exact power of two, so the conversion rounds once (in the
// int64→float64 conversion) and never in the multiply.
const probInv = 1.0 / float64(probOne)

// fixProb quantizes one per-cell contribution. p must be in [0, 1]
// (the fold step clamps before quantizing); rounding is to nearest
// with ties away from zero, a pure function of p.
//
//irlint:hot
func fixProb(p float64) int64 {
	return int64(p*float64(probOne) + 0.5)
}
