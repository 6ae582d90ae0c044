package faultinject

import (
	"errors"
	"sort"
	"testing"
)

// TestRegistryCoversEveryDeclaredPoint pins the registry contract:
// every exported Point constant is registered with a non-empty doc,
// and Points() enumerates exactly the registry, sorted. Adding a
// Point constant without registering it fails here; registering it
// without exercising it fails the server chaos battery
// (TestFaultMatrixCoversAllRegisteredPoints).
func TestRegistryCoversEveryDeclaredPoint(t *testing.T) {
	declared := []Point{
		CheckpointWrite,
		FSCreate, FSWrite, FSSync, FSRename, FSTornWrite, FSRead, FSCorruptRead,
		JobRun,
	}
	pts := Points()
	if len(pts) != len(declared) {
		t.Errorf("Points() returned %d points, %d Point constants are declared", len(pts), len(declared))
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i] < pts[j] }) {
		t.Errorf("Points() not sorted: %v", pts)
	}
	for _, p := range declared {
		if !Registered(p) {
			t.Errorf("point %q is declared but not registered", p)
		}
		if Doc(p) == "" {
			t.Errorf("point %q has no registered doc", p)
		}
	}
	if Registered("no.such.point") {
		t.Error("Registered accepted an unknown point")
	}
}

// TestDisarmedFiresAreNoOps pins the zero-overhead contract: with no
// hook set, every Fire variant proceeds.
func TestDisarmedFiresAreNoOps(t *testing.T) {
	Reset()
	if err := Fire(CheckpointWrite, 3); err != nil {
		t.Errorf("disarmed Fire = %v", err)
	}
	if err := FirePath(FSWrite, "/x", 0); err != nil {
		t.Errorf("disarmed FirePath = %v", err)
	}
	data := []byte("abc")
	got, err := FireRead(FSCorruptRead, "/x", data)
	if err != nil || string(got) != "abc" {
		t.Errorf("disarmed FireRead = (%q, %v), want bytes untouched", got, err)
	}
}

// TestPathHookReceivesContext proves path and detail reach the hook
// and its error propagates.
func TestPathHookReceivesContext(t *testing.T) {
	boom := errors.New("boom")
	var gotPoint Point
	var gotPath string
	var gotDetail int
	SetPath(func(p Point, path string, detail int) error {
		gotPoint, gotPath, gotDetail = p, path, detail
		return boom
	})
	defer Reset()
	if err := FirePath(JobRun, "j00000007", 2); !errors.Is(err, boom) {
		t.Fatalf("FirePath error = %v, want boom", err)
	}
	if gotPoint != JobRun || gotPath != "j00000007" || gotDetail != 2 {
		t.Errorf("hook saw (%q, %q, %d)", gotPoint, gotPath, gotDetail)
	}
	// The legacy detail-only hook stays independent: unset, it proceeds.
	if err := Fire(CheckpointWrite, 0); err != nil {
		t.Errorf("Fire with only a path hook armed = %v, want nil", err)
	}
}

// TestReadHookCanCorrupt proves a read hook can substitute bytes.
func TestReadHookCanCorrupt(t *testing.T) {
	SetRead(func(p Point, path string, data []byte) ([]byte, error) {
		out := append([]byte(nil), data...)
		out[0] ^= 0xFF
		return out, nil
	})
	defer Reset()
	got, err := FireRead(FSCorruptRead, "/f", []byte{0x01, 0x02})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xFE || got[1] != 0x02 {
		t.Errorf("corrupted bytes = %v, want first byte flipped", got)
	}
}

// TestResetDisarmsEverything pins Reset as the one-call disarm.
func TestResetDisarmsEverything(t *testing.T) {
	Set(func(Point, int) error { return errors.New("a") })
	SetPath(func(Point, string, int) error { return errors.New("b") })
	SetRead(func(_ Point, _ string, d []byte) ([]byte, error) { return d, errors.New("c") })
	Reset()
	if err := Fire(CheckpointWrite, 0); err != nil {
		t.Errorf("Fire after Reset = %v", err)
	}
	if err := FirePath(FSSync, "/x", 0); err != nil {
		t.Errorf("FirePath after Reset = %v", err)
	}
	if _, err := FireRead(FSCorruptRead, "/x", nil); err != nil {
		t.Errorf("FireRead after Reset = %v", err)
	}
}
