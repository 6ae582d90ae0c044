package fplan

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"irgrid/internal/anneal"
	"irgrid/internal/seqpair"
	"irgrid/internal/slicing"
)

// SnapshotFormat is the version of the Snapshot payload layout. It
// only changes when the meaning of an existing field changes; adding
// optional fields does not bump it.
const SnapshotFormat = 1

// ErrSnapshotMismatch reports a resume attempt against a snapshot
// taken from a different circuit or configuration (detected via the
// config digest embedded at checkpoint time).
var ErrSnapshotMismatch = errors.New("fplan: snapshot does not match this circuit/config")

// LayoutState is the serializable form of an annealer search state:
// the Polish expression for the slicing representation, or the
// sequence pair plus rotation flags for seqpair.
type LayoutState struct {
	Repr string `json:"repr"`
	Expr []int  `json:"expr,omitempty"`
	P1   []int  `json:"p1,omitempty"`
	P2   []int  `json:"p2,omitempty"`
	Rot  []bool `json:"rot,omitempty"`
}

// Snapshot is the durable checkpoint of a Runner.Run in flight: the
// anneal schedule position, the exact PRNG position, both search
// states, and a digest binding the snapshot to the circuit and
// configuration that produced it. Snapshots are taken only at
// temperature-step boundaries, so resuming one is bit-identical to
// never having stopped (TestCheckpointResumeDeterminism).
//
// The normalization constants are deliberately not stored: they are
// re-derived deterministically from the circuit and seed when the
// resuming Runner is constructed, and the digest guarantees those
// inputs match.
type Snapshot struct {
	Format   int          `json:"format"`
	Circuit  string       `json:"circuit"`
	Digest   string       `json:"digest"`
	Step     int          `json:"step"`
	Temp     float64      `json:"temp"`
	Draws    uint64       `json:"draws"`
	Cur      LayoutState  `json:"cur"`
	Best     LayoutState  `json:"best"`
	CurCost  float64      `json:"cur_cost"`
	BestCost float64      `json:"best_cost"`
	Stats    anneal.Stats `json:"stats"`
}

// configDigest fingerprints everything a resumed run must share with
// the run that wrote the snapshot: the full circuit and every config
// knob that shapes the search trajectory. MaxTemps is deliberately
// excluded — extending or shortening the schedule cap is a legitimate
// reason to resume — as are FullEval (results are bit-identical for
// both evaluation modes) and telemetry.
func (r *Runner) configDigest() string {
	h := sha256.New()
	c := r.Circuit
	fmt.Fprintf(h, "circuit %s %d %d\n", c.Name, len(c.Modules), len(c.Nets))
	for _, m := range c.Modules {
		fmt.Fprintf(h, "m %s %g %g %v %g %g\n", m.Name, m.W, m.H, m.Pad, m.MinAspect, m.MaxAspect)
	}
	for _, n := range c.Nets {
		fmt.Fprintf(h, "n %s", n.Name)
		for _, p := range n.Pins {
			fmt.Fprintf(h, " %d:%g:%g", p.Module, p.FX, p.FY)
		}
		fmt.Fprintln(h)
	}
	cfg := &r.Cfg
	fmt.Fprintf(h, "cfg %g %g %g pitch=%g rot=%v wire=%q repr=%q est=%q norm=%d\n",
		cfg.Alpha, cfg.Beta, cfg.Gamma, cfg.Pitch, cfg.AllowRotate,
		string(cfg.Wire), cfg.Representation, r.estimatorName(), cfg.NormSamples)
	a := &cfg.Anneal
	fmt.Fprintf(h, "anneal seed=%d ia=%g cool=%g mpt=%d mar=%g cal=%d\n",
		a.Seed, a.InitAccept, a.Cooling, a.MovesPerTemp, a.MinAcceptRate, a.CalibrationMoves)
	return hex.EncodeToString(h.Sum(nil))
}

// encodeLayout flattens a search state for serialization.
func encodeLayout(l layout) (LayoutState, error) {
	switch v := l.(type) {
	case slicingLayout:
		return LayoutState{Repr: ReprSlicing, Expr: append([]int(nil), v.e...)}, nil
	case seqpairLayout:
		return LayoutState{
			Repr: ReprSeqPair,
			P1:   append([]int(nil), v.sp.P1...),
			P2:   append([]int(nil), v.sp.P2...),
			Rot:  append([]bool(nil), v.sp.Rot...),
		}, nil
	default:
		return LayoutState{}, fmt.Errorf("fplan: unsupported layout type %T", l)
	}
}

// decodeLayout reconstructs and validates a search state against this
// Runner's circuit and representation.
func (r *Runner) decodeLayout(s LayoutState) (layout, error) {
	repr := r.Cfg.Representation
	if repr == "" {
		repr = ReprSlicing
	}
	if s.Repr != repr {
		return nil, fmt.Errorf("%w: snapshot representation %q, config %q", ErrSnapshotMismatch, s.Repr, repr)
	}
	switch s.Repr {
	case ReprSlicing:
		e := slicing.Expr(append([]int(nil), s.Expr...))
		if err := e.Validate(len(r.Circuit.Modules)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotMismatch, err)
		}
		return slicingLayout{e: e, p: r.packer}, nil
	case ReprSeqPair:
		sp := &seqpair.Pair{
			P1:  append([]int(nil), s.P1...),
			P2:  append([]int(nil), s.P2...),
			Rot: append([]bool(nil), s.Rot...),
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotMismatch, err)
		}
		if len(sp.P1) != len(r.Circuit.Modules) {
			return nil, fmt.Errorf("%w: snapshot over %d modules, circuit has %d",
				ErrSnapshotMismatch, len(sp.P1), len(r.Circuit.Modules))
		}
		return seqpairLayout{
			sp:          sp,
			p:           seqpair.NewPacker(r.Circuit.Modules),
			allowRotate: r.Cfg.AllowRotate,
		}, nil
	default:
		return nil, fmt.Errorf("%w: unknown representation %q", ErrSnapshotMismatch, s.Repr)
	}
}

// snapshot converts an anneal boundary snapshot into the serializable
// checkpoint document.
func (r *Runner) snapshot(as *anneal.Snapshot) (*Snapshot, error) {
	cur, err := encodeLayout(as.Cur.(*saState).l)
	if err != nil {
		return nil, err
	}
	best, err := encodeLayout(as.Best.(*saState).l)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Format:   SnapshotFormat,
		Circuit:  r.Circuit.Name,
		Digest:   r.digest,
		Step:     as.Step,
		Temp:     as.Temp,
		Draws:    as.Draws,
		Cur:      cur,
		Best:     best,
		CurCost:  as.CurCost,
		BestCost: as.BestCost,
		Stats:    as.Stats,
	}, nil
}

// annealSnapshot validates a checkpoint against this Runner and
// reconstructs the anneal-level resume state.
func (r *Runner) annealSnapshot(s *Snapshot) (*anneal.Snapshot, error) {
	if s.Format != SnapshotFormat {
		return nil, fmt.Errorf("%w: snapshot format %d, want %d", ErrSnapshotMismatch, s.Format, SnapshotFormat)
	}
	if s.Digest != r.digest {
		return nil, fmt.Errorf("%w: circuit %q (config digest changed)", ErrSnapshotMismatch, s.Circuit)
	}
	curL, err := r.decodeLayout(s.Cur)
	if err != nil {
		return nil, err
	}
	bestL, err := r.decodeLayout(s.Best)
	if err != nil {
		return nil, err
	}
	return &anneal.Snapshot{
		Step:     s.Step,
		Temp:     s.Temp,
		Draws:    s.Draws,
		Cur:      &saState{r: r, l: curL, cost: s.CurCost},
		Best:     &saState{r: r, l: bestL, cost: s.BestCost},
		CurCost:  s.CurCost,
		BestCost: s.BestCost,
		Stats:    s.Stats,
	}, nil
}
